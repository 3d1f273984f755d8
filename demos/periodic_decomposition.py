"""Split a configuration into periodic components along prescribed directions.

The split is solved exactly on a finite core window, by a graph walk and,
for three or more directions, fraction-free elimination, so the components
it reports are certificates, not floating-point estimates.

Run:  python3 demos/periodic_decomposition.py
"""

from nivatk import (
    CosetIndicator,
    Lattice,
    Periodic,
    Sum,
    Window,
    decompose,
)


def grid(pattern, lo, hi, row):
    # component entries are ints, or Fractions where not integral; str
    # renders both
    cells = [(i, row) for i in range(lo, hi + 1)]
    return " ".join(f"{str(pattern.values[c]):>4}" for c in cells)


def main():
    print("horizontal + vertical stripes:")
    horiz = Periodic(Lattice([(1, 0), (0, 2)]), {(0, 0): 0, (0, 1): 1})
    vert = Periodic(Lattice([(2, 0), (0, 1)]), {(0, 0): 0, (1, 0): 1})
    c = Sum([(1, horiz), (1, vert)])
    dec = decompose(c, [(1, 0), (0, 1)], Window.box((0, 0), (9, 9)))
    print(f"  feasible, residual check: {dec.residual_check}")
    for comp, v in zip(dec.components, dec.vectors):
        print(f"  component with period {v}, row 0: {grid(comp, 0, 7, 0)}")
    total = dec.component_sum()
    print(f"  rebuilt row 0:  {grid(total, 0, 7, 0)}")
    print(f"  original row 0: {' '.join(f'{str(c.value((i, 0))):>4}' for i in range(8))}")

    print("two perpendicular lines in 3D:")
    lines = Sum([
        (1, CosetIndicator((0, 0, 0), [(1, 0, 0)], 1)),
        (1, CosetIndicator((0, 0, 3), [(0, 1, 0)], 1)),
    ])
    dec = decompose(lines, [(1, 0, 0), (0, 1, 0)], Window.box((-4, -4, -4), (4, 4, 4)))
    print(f"  residual check: {dec.residual_check}")
    for comp, v in zip(dec.components, dec.vectors):
        support = sum(1 for val in comp.values.values() if val != 0)
        print(f"  period {v}: {support} nonzero cells on the core")


if __name__ == "__main__":
    main()
