import random

import pytest

from oracles import (
    chamber_lattices_reference,
    det_reference,
    full_row_rank_reference,
    global_lattice_reference,
    lattice_from_columns,
    lattice_intersect_reference,
    matmul_reference,
    solve_exact,
)
from vpfbetti.chambers import chamber_complex_2xn, global_lattice, pair_lattice
from vpfbetti.lattices import Lattice, RankError, hnf, lattice_intersect


def test_hnf_worked_example():
    A = ((2, 3, 6), (1, 1, 1))
    H, U = hnf(A)
    assert H == ((1, 0, 0), (0, 1, 0))
    assert matmul_reference(A, U) == H
    assert det_reference(U) in (1, -1)


def test_hnf_identity():
    I = ((1, 0), (0, 1))
    H, U = hnf([list(row) for row in I])
    assert H == I
    assert U == I


def test_hnf_four_columns():
    A = ((2, 3, 6, 7), (1, 1, 1, 1))
    H, U = hnf(A)
    assert H == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert matmul_reference(A, U) == H
    # unimodularity of U by exact determinant
    assert det_reference(U) in (1, -1)


def test_hnf_random_contract():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(d))
        if not full_row_rank_reference(A):
            with pytest.raises(RankError):
                hnf(A)
            continue
        H, U = hnf(A)
        assert matmul_reference(A, U) == H
        assert det_reference(U) in (1, -1)
        for i in range(d):
            assert H[i][i] > 0
            for j in range(i + 1, n):
                assert H[i][j] == 0
            for j in range(i):
                assert 0 <= H[i][j] < H[i][i]


def test_hnf_rank_deficient():
    with pytest.raises(RankError):
        hnf([[1, 2], [2, 4]])


def test_hnf_rejects_rows_of_unequal_length():
    with pytest.raises(ValueError, match="unequal length"):
        hnf([[1, 2, 3], [0, 1]])


@pytest.mark.parametrize(
    "basis",
    [
        ((2, 5), (0, 3)),  # q not reduced below r
        ((2, -1), (0, 3)),
        ((0, 0), (0, 3)),
        ((2, 0), (0, 0)),
        ((2, 0), (1, 3)),  # not triangular
    ],
)
def test_lattice_rejects_a_basis_that_is_not_canonical(basis):
    with pytest.raises(ValueError):
        Lattice(basis=basis)


def test_lattice_det_is_derived_from_the_basis():
    with pytest.raises(TypeError):
        Lattice(basis=((2, 0), (0, 3)), det=5)
    L = Lattice(basis=((2, 2), (0, 3)))
    assert L.det == 6 == len(L.residues())
    assert L == lattice_from_columns([(2, 5), (0, 3)])
    with pytest.raises(TypeError):
        Lattice(basis=((2.0, 0), (0, 3)))


def test_lattice_from_columns_unimodular_pair():
    L = lattice_from_columns([(2, 1), (3, 1)])
    assert L.det == 1
    assert L.contains((1, 0)) and L.contains((0, 1))


def test_lattice_from_columns_det4():
    L = lattice_from_columns([(2, 1), (6, 1)])
    assert L.det == 4
    # brute-force coset count on a box
    reps = {L.reduce((x, y)) for x in range(10) for y in range(10)}
    assert len(reps) == 4


def test_lattice_standard_basis():
    L = lattice_from_columns([(1, 0), (0, 1)])
    assert L.basis == ((1, 0), (0, 1)) and L.det == 1


def test_lattice_from_columns_rejects_non_planar_generators():
    for d in (1, 3):
        basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        with pytest.raises(ValueError, match="two coordinates"):
            lattice_from_columns(basis)


def test_lattice_rank_deficient():
    with pytest.raises(RankError):
        lattice_from_columns([(1, 2), (2, 4)])


def test_intersect_idempotent():
    L = lattice_from_columns([(2, 1), (6, 1)])
    M = lattice_intersect(L, L)
    assert M.basis == L.basis and M.det == L.det


def test_intersect_worked_example():
    L13 = lattice_from_columns([(2, 1), (6, 1)])
    L23 = lattice_from_columns([(3, 1), (6, 1)])
    L = lattice_intersect(L13, L23)
    assert L.det == 12


def test_intersect_axis_lattices():
    L1 = lattice_from_columns([(2, 0), (0, 1)])
    L2 = lattice_from_columns([(3, 0), (0, 1)])
    L = lattice_intersect(L1, L2)
    assert L.det == 6
    # brute membership scan
    for x in range(-20, 21):
        for y in range(-20, 21):
            assert L.contains((x, y)) == (L1.contains((x, y)) and L2.contains((x, y)))


def test_intersect_membership_random():
    rng = random.Random(11)
    for _ in range(6):
        L1 = lattice_from_columns(
            [(rng.randint(1, 6), rng.randint(0, 3)), (rng.randint(0, 3), rng.randint(1, 6))]
        )
        L2 = lattice_from_columns(
            [(rng.randint(1, 6), rng.randint(0, 3)), (rng.randint(0, 3), rng.randint(1, 6))]
        )
        L = lattice_intersect(L1, L2)
        assert (L1.det * L2.det) % L.det == 0
        for _ in range(1000):
            v = (rng.randint(-40, 40), rng.randint(-40, 40))
            assert L.contains(v) == (L1.contains(v) and L2.contains(v))


def test_reduce_is_the_box_point_of_its_class():
    # eval_row keys pieces by this arithmetic; a basis
    # with p > 1 and q != 0 exercises both terms of the second coordinate
    rng = random.Random(23)
    seen = 0
    while seen < 40:
        try:
            lattice = lattice_from_columns(
                [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(2)]
            )
        except RankError:
            continue
        (p, q), (zero, r) = lattice.basis
        if p < 2 or q == 0:
            continue
        seen += 1
        assert zero == 0 and lattice.det == p * r
        for _ in range(50):
            x, y = rng.randint(-80, 80), rng.randint(-80, 80)
            a, b = lattice.reduce((x, y))
            assert 0 <= a < p and 0 <= b < r, (lattice, x, y)
            # (x - a, y - b) = k1 * (p, q) + k2 * (0, r), solved top row first
            k1, rest1 = divmod(x - a, p)
            k2, rest2 = divmod(y - b - k1 * q, r)
            assert rest1 == rest2 == 0, (lattice, x, y)


def test_residues_unimodular():
    L = lattice_from_columns([(1, 0), (0, 1)])
    assert L.residues() == ((0, 0),)


def test_residues_det12_count():
    L = lattice_intersect(
        lattice_from_columns([(2, 1), (6, 1)]), lattice_from_columns([(3, 1), (6, 1)])
    )
    reps = L.residues()
    assert len(reps) == 12
    assert len(set(reps)) == 12
    for r in reps:
        assert L.reduce(r) == r


def test_residues_two_by_two():
    L = lattice_from_columns([(2, 0), (0, 2)])
    assert set(L.residues()) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_residues_partition_box():
    L = lattice_from_columns([(3, 1), (1, 2)])
    reps = set(L.residues())
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert L.reduce((x, y)) in reps


def test_pair_lattice_det_is_degree_gap():
    degrees = [2, 3, 5, 9, 14]
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            L = lattice_from_columns([(degrees[i], 1), (degrees[j], 1)])
            assert L.det == degrees[j] - degrees[i]


def test_closed_forms_equal_the_hermite_normal_form_references():
    rng = random.Random(34)
    # pair lattices, degree 0 and negative degrees among them
    pairs = [(0, 1), (0, 7), (7, 0), (-3, 5), (4, 10), (12, 30)]
    pairs += [tuple(rng.sample(range(-5, 60), 2)) for _ in range(300)]
    for a, b in pairs:
        assert pair_lattice(a, b) == lattice_from_columns([(a, 1), (b, 1)]), (a, b)
    # intersections of canonical lattices, with p = 1, r = 1 and q = 0 drawn often
    def canonical():
        p, r = rng.choice([1, rng.randint(1, 40)]), rng.choice([1, rng.randint(1, 40)])
        return Lattice(((p, rng.choice([0, rng.randrange(r)])), (0, r)))

    fixed = [Lattice(((1, 0), (0, 1))), Lattice(((3, 0), (0, 1))), Lattice(((1, 0), (0, 5)))]
    for L1, L2 in [(a, b) for a in fixed for b in fixed] + [(canonical(), canonical()) for _ in range(600)]:
        assert lattice_intersect(L1, L2) == lattice_intersect_reference(L1, L2), (L1, L2)
    # every chamber lattice and the global lattice of rings of 2-6 degrees; those drawn
    # from 0-5 mostly repeat a degree and hold 0
    for _ in range(60):
        degrees = sorted(rng.choices(rng.choice([range(40), range(6)]), k=rng.randint(2, 6)))
        if len(set(degrees)) < 2:
            continue
        lattices = [c.lattice for c in chamber_complex_2xn(degrees)]
        assert lattices == chamber_lattices_reference(degrees), degrees
        assert global_lattice(degrees) == global_lattice_reference(degrees), degrees


def test_solve_exact_identity():
    assert solve_exact([[1, 0], [0, 1]], [5, -3]) == (5, -3)


def test_solve_exact_hand_checked():
    assert solve_exact([[2, 1], [1, 1]], [5, 3]) == (2, 1)


def test_solve_exact_vandermonde_square():
    rows = [[1, x, x * x] for x in (0, 1, 2)]
    assert solve_exact(rows, [0, 1, 4]) == (0, 0, 1)


def test_solve_exact_inconsistent():
    assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_exact_overdetermined_consistent():
    rows = [[1, 0], [0, 1], [1, 1]]
    assert solve_exact(rows, [2, 3, 5]) == (2, 3)
