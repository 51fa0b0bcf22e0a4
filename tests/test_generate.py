"""Seeded generation: array draws against the per-entry loops they replaced (reference.py)."""

import numpy as np
import pytest

from ncgcurv import generate
from ncgcurv.curvature import VerticalOperator
from ncgcurv.fgpmod import ConnectionForm
from ncgcurv.generate import rng_for, unit_disc
from ncgcurv.triple import SpectralTriple

from reference import (dense_compress, loop_connection, loop_lift_pair, loop_random_module,
                       loop_random_triple, loop_universal_form, loop_vertical)


def twin_streams(seed):
    return rng_for(seed), rng_for(seed)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the array draws against the reference -----------------------------------


def test_unit_disc_rows_are_successive_unit_disc_draws():
    for seed in range(50):
        loop, array = twin_streams(seed)
        rows, k = 1 + seed % 6, seed % 5
        want = np.array([unit_disc(loop, (k,)) for _ in range(rows)]).reshape(rows, k)
        assert same_bits(generate._unit_disc_rows(array, rows, k), want)
        assert loop.bit_generator.state == array.bit_generator.state


def test_each_draw_leaves_the_stream_where_the_loops_leave_it():
    # every generate function, on 200 seeds, from the same state: the same
    # state after, and the same bits drawn (both sides read the triple's own
    # structure constants, so this holds for every kind of triple).  The one
    # exception is the projection of a point triple: it is cut per point block
    # where the loops cut the assembled h, so it agrees at round-off
    kinds = {"diag": 0, "amp2": 0}
    for seed in range(200):
        loop, array = twin_streams(seed)
        kind = "amp2" if seed % 4 == 3 else None
        n = 4 if kind else None
        st = generate.random_triple(array, n=n, kind=kind)
        want = loop_random_triple(loop, n=n, kind=kind)
        assert loop.bit_generator.state == array.bit_generator.state
        assert same_bits(st.basis, want.basis) and same_bits(st.dirac, want.dirac)
        kinds["diag" if st.points is not None else "amp2"] += 1

        module = generate.random_module(array, st)
        want = loop_random_module(loop, st)
        assert loop.bit_generator.state == array.bit_generator.state
        assert same_bits(module.signs, want.signs)
        if st.points is None:
            assert same_bits(module.p, want.p)
        else:
            assert module.p.shape == want.p.shape and np.abs(module.p - want.p).max() <= 1e-12

        form = generate.random_universal_form(array, st)
        assert same_bits(form.coeffs, loop_universal_form(loop, st))
        a = generate.random_connection(array, module)
        assert isinstance(a, ConnectionForm) and same_bits(a.entries, loop_connection(loop, module))
        s = generate.random_vertical(array, module)
        assert isinstance(s, VerticalOperator) and same_bits(s.entries, loop_vertical(loop, module))
        pair = generate.junk_lift_pair(array, module)
        for got, want in zip(pair, loop_lift_pair(loop, module)):
            assert same_bits(got.entries, want)
        assert loop.bit_generator.state == array.bit_generator.state
    assert min(kinds.values()) >= 40


# -- the cut per point block against the dense cut ---------------------------


def rank(module) -> int:
    return int(round(np.trace(module.projector).real))


def point_module_draws():
    """(rng, triple, m, allow_free) per draw: the default law on 1500 seeds,
    then forced m in 1..6 without the free module on 1800, n up to 20."""
    for seed in range(1500):
        rng = rng_for(seed)
        yield rng, generate.random_triple(rng), None, True
    for seed in range(1800):
        rng = rng_for(10_000 + seed)
        n = 2 + seed % 19
        st = generate.random_triple(rng, n=n, d=int(rng.integers(1, min(n, 10) + 1)), kind="diag")
        yield rng, st, 1 + seed % 6, False


def test_point_cut_matches_the_dense_cut_on_seeded_modules():
    # the same stream, signs and rank(P), and p within 1e-12 of the dense cut
    count, cuts = 0, 0
    for rng, st, m, allow_free in point_module_draws():
        if st.points is None:
            continue
        loop = np.random.default_rng()
        loop.bit_generator.state = rng.bit_generator.state
        module = generate.random_module(rng, st, m=m, allow_free=allow_free)
        want = loop_random_module(loop, st, m=m, allow_free=allow_free)
        assert loop.bit_generator.state == rng.bit_generator.state
        assert same_bits(module.signs, want.signs)
        assert module.p.shape == want.p.shape and rank(module) == rank(want)
        assert np.abs(module.p - want.p).max() <= 1e-12
        count += 1
        cuts += not same_bits(module.p, generate._free_table(module.m, st.d))
    assert count >= 3000 and cuts >= 2000


def test_point_cut_reads_the_hermitian_part_of_any_table():
    # the dense cut symmetrizes h; so does the cut per point, on tables that
    # are far from Hermitian (eigh reads one triangle)
    rng = rng_for(3)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        st = generate.random_triple(rng, n=n, d=int(rng.integers(1, n + 1)), kind="diag")
        m = int(rng.integers(1, 5))
        table = unit_disc(rng, (m, m, st.d))
        want, got = generate._dense_cut(st, table), generate._point_cut(table)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.abs(got - want).max() <= 1e-12


def test_random_module_makes_no_coords_call_over_points(monkeypatch):
    calls = []
    coords = SpectralTriple.coords

    def recording(self, *args, **kwargs):
        calls.append(self)
        return coords(self, *args, **kwargs)

    monkeypatch.setattr(SpectralTriple, "coords", recording)
    rng = rng_for(4)
    for _ in range(200):
        st = generate.random_triple(rng, kind="diag")
        generate.random_module(rng, st, allow_free=False)
    assert calls == []
    st = generate.random_triple(rng, n=4, kind="amp2")  # the recorder sees the dense cut
    generate.random_module(rng, st, allow_free=False)
    assert calls


def test_closed_form_compression_matches_the_structure_constants():
    # over points Y replaces the einsums with T, within round-off; every
    # other basis keeps them, bit for bit
    rng = rng_for(6)
    kinds = {"diag": 0, "amp2": 0}
    for k in range(660):
        kind = "amp2" if k % 6 == 5 else "diag"
        st = generate.random_triple(rng, n=4 if kind == "amp2" else None, kind=kind)
        module = generate.random_module(rng, st)
        d = st.d
        entries = unit_disc(rng, (module.m, module.m, d, d))
        got, want = generate._compress_connection(module, entries), dense_compress(module, entries)
        if st.points is None:
            assert same_bits(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        kinds["diag" if st.points is not None else "amp2"] += 1
    assert kinds["diag"] >= 500 and kinds["amp2"] >= 100


# -- closed forms and cheaper draws against the expressions they replaced ----


def test_point_delta_combinations_are_the_weighted_tables():
    # equal values (an exact zero may carry either sign) and the same stream,
    # for point triples with d = 1 ... 10 and up to 12 rows
    rng = rng_for(8)
    for d in range(1, 11):
        for _ in range(30):
            st = generate.random_triple(rng, n=int(rng.integers(d, 13)), d=d, kind="diag")
            rows, seed = int(rng.integers(0, 13)), int(rng.integers(2**32))
            closed, loop = twin_streams(seed)
            got = generate._delta_combinations(closed, st, rows)
            tables = generate._universal_tables(st)
            want = generate._weighted_tables(generate._unit_disc_rows(loop, rows, len(tables)),
                                             tables)
            assert st.points is not None and got.shape == want.shape == (rows, d, d)
            assert np.array_equal(got, want)
            assert closed.bit_generator.state == loop.bit_generator.state


def test_other_bases_take_the_weighted_tables_bit_for_bit():
    rng = rng_for(9)
    for _ in range(40):
        st = generate.random_triple(rng, n=4, kind="amp2")
        closed, loop = twin_streams(int(rng.integers(2**32)))
        tables = generate._universal_tables(st)
        want = generate._weighted_tables(generate._unit_disc_rows(loop, 3, len(tables)), tables)
        assert st.points is None and same_bits(generate._delta_combinations(closed, st, 3), want)
        assert closed.bit_generator.state == loop.bit_generator.state


def test_random_signs_draw_what_choice_drew():
    for seed in range(200):
        for m in range(6):
            new, old = twin_streams(seed * 6 + m)
            signs = generate._random_signs(new, m)
            want = old.choice([1.0, -1.0], size=m)  # the replaced draw, and its re-roll
            if m >= 2 and np.all(want == want[0]) and old.random() < 0.8:
                want[int(old.integers(0, m))] *= -1.0
            assert signs.dtype == float and same_bits(signs, want)
            assert new.bit_generator.state == old.bit_generator.state


def test_each_amp2_triple_holds_its_own_copy_of_the_basis():
    rng = rng_for(10)
    first, second = (generate.random_triple(rng, n=4, kind="amp2") for _ in range(2))
    assert same_bits(first.basis, generate._amplified_m2_basis())
    first.basis[1, 0, 0] = 7.0
    assert same_bits(second.basis, generate._amplified_m2_basis())
    assert same_bits(generate.random_triple(rng, n=4, kind="amp2").basis,
                     generate._amplified_m2_basis())


def test_diag_basis_puts_every_slot_in_one_point():
    rng = rng_for(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        st = generate.random_triple(rng, n=n, d=int(rng.integers(1, n + 1)), kind="diag")
        e = st.points
        assert e is not None and e.shape == (st.d, n)
        assert np.array_equal(e.sum(0), np.ones(n))  # every slot in exactly one group


# -- sizes that no triple has are refused before anything is drawn ----------


@pytest.mark.parametrize("kwargs", [dict(n=3, d=4), dict(n=3, d=4, kind="diag")])
def test_diag_d_above_n_is_refused(kwargs):
    rng = rng_for(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="d = 4"):
        generate.random_triple(rng, **kwargs)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("d", [0, -1])
def test_diag_d_below_one_is_refused(d):
    rng = rng_for(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"d = {d}"):
        generate.random_triple(rng, n=3, d=d)
    assert rng.bit_generator.state == state


def test_amp2_with_another_d_is_refused():
    rng = rng_for(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="d = 2"):
        generate.random_triple(rng, n=4, d=2, kind="amp2")
    assert rng.bit_generator.state == state
    assert generate.random_triple(rng, n=4, d=4, kind="amp2").d == 4
