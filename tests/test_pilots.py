import numpy as np
import pytest

from cfomimo import (ParameterError, PilotMatrix, PilotStructure, custom_pilot,
                     expand_block, generate_periodic_pilot, generate_td_pilot,
                     pilot_from_config, pilot_to_config)


def test_periodic_example_m2_lt3():
    pilot = generate_periodic_pilot(3, 2, rho=1.0)
    expected = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ], dtype=complex)
    np.testing.assert_array_equal(pilot.entries, expected)
    assert pilot.structure is PilotStructure.PERIODIC
    assert pilot.n == 6 and pilot.l_t == 3


def test_periodic_single_antenna_is_all_ones():
    pilot = generate_periodic_pilot(1, 4, rho=1.0)
    np.testing.assert_array_equal(pilot.entries, np.ones((4, 1)))


def test_periodic_scrambled_and_scaled():
    # sqrt(2) * diag(1,-1,1,-1) * [I; I]: scrambling flips rows 1 and 3
    pilot = generate_periodic_pilot(2, 2, rho=2.0, scrambling=[1, -1, 1, -1])
    s2 = np.sqrt(2.0)
    expected = np.array([
        [s2, 0],
        [0, -s2],
        [s2, 0],
        [0, -s2],
    ], dtype=complex)
    np.testing.assert_allclose(pilot.entries, expected, atol=1e-15)
    gram = pilot.entries.conj().T @ pilot.entries
    np.testing.assert_allclose(gram, 4.0 * np.eye(2), atol=1e-12)


def test_td_example_m2_lt3():
    pilot = generate_td_pilot(3, 2, rho=1.0)
    expected = np.array([
        [1, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [0, 1, 0],
        [0, 0, 1],
        [0, 0, 1],
    ], dtype=complex)
    np.testing.assert_array_equal(pilot.entries, expected)


def test_td_single_antenna_matches_periodic():
    td = generate_td_pilot(1, 5, rho=1.0)
    per = generate_periodic_pilot(1, 5, rho=1.0)
    np.testing.assert_array_equal(td.entries, per.entries)


def test_td_gram_and_column_counts():
    pilot = generate_td_pilot(2, 3, rho=1.0)
    gram = pilot.entries.conj().T @ pilot.entries
    np.testing.assert_allclose(gram, 3.0 * np.eye(2), atol=1e-12)
    assert np.all(np.count_nonzero(pilot.entries, axis=0) == 3)


@pytest.mark.parametrize("maker", [generate_periodic_pilot, generate_td_pilot])
def test_skeleton_one_per_row_m_per_column(maker):
    pilot = maker(3, 4, rho=1.0)
    mask = np.abs(pilot.entries) > 0
    assert np.all(mask.sum(axis=1) == 1)
    assert np.all(mask.sum(axis=0) == 4)


def test_orthogonality_property_sweep(rng):
    for l_t in range(1, 5):
        for m in range(1, 9):
            n = l_t * m
            scrambling = np.exp(2j * np.pi * rng.random(n))
            rho = float(rng.uniform(0.3, 3.0))
            target = (n * rho / l_t) * np.eye(l_t)
            for pilot in (generate_periodic_pilot(l_t, m, rho, scrambling),
                          generate_td_pilot(l_t, m, rho, scrambling)):
                gram = pilot.entries.conj().T @ pilot.entries
                assert np.max(np.abs(gram - target)) < 1e-12 * max(1.0, n * rho)
                assert pilot.is_orthogonal()


def test_scrambling_leaves_gram_unchanged(rng):
    scrambling = np.exp(2j * np.pi * rng.random(8))
    plain = generate_periodic_pilot(2, 4, rho=1.3)
    scrambled = generate_periodic_pilot(2, 4, rho=1.3, scrambling=scrambling)
    gp = plain.entries.conj().T @ plain.entries
    gs = scrambled.entries.conj().T @ scrambled.entries
    np.testing.assert_allclose(gs, gp, atol=1e-12)


def test_random_unitary_core(rng):
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    core, _ = np.linalg.qr(raw)
    pilot = generate_periodic_pilot(3, 2, rho=1.0, unitary_core=core)
    gram = pilot.entries.conj().T @ pilot.entries
    np.testing.assert_allclose(gram, 2.0 * np.eye(3), atol=1e-12)


def test_average_power_invariant(rng):
    pilot = generate_td_pilot(2, 5, rho=2.5)
    power = np.trace(pilot.entries.conj().T @ pilot.entries).real / pilot.n
    assert abs(power - 2.5) < 1e-12


def test_expand_block_scalar_case():
    pilot = custom_pilot(np.array([[2.0 + 1j], [3.0 - 1j]]))
    sbreve = expand_block(pilot, 1)
    np.testing.assert_array_equal(sbreve, np.diag([2.0 + 1j, 3.0 - 1j]))


def test_expand_block_two_antennas_layout():
    entries = np.array([[11.0, 12.0], [21.0, 22.0]])
    sbreve = expand_block(custom_pilot(entries), 1)
    expected = np.array([
        [11.0, 12.0, 0.0, 0.0],
        [0.0, 0.0, 21.0, 22.0],
    ])
    np.testing.assert_array_equal(sbreve, expected)


def test_expand_block_gram_is_block_diagonal_copies(rng):
    entries = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    pilot = custom_pilot(entries)
    l_r = 3
    sbreve = expand_block(pilot, l_r)
    gram = sbreve.conj().T @ sbreve
    d = pilot.n * pilot.l_t
    block = gram[:d, :d].copy()
    for r in range(l_r):
        sl = slice(r * d, (r + 1) * d)
        np.testing.assert_allclose(gram[sl, sl], block, atol=1e-12)
        gram[sl, sl] = 0.0
    assert np.max(np.abs(gram)) == 0.0


def test_expand_block_matches_vectorization(rng):
    # y0 = Sb h must equal the per-sample sum over transmit antennas
    entries = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    pilot = custom_pilot(entries)
    l_r = 2
    h = rng.standard_normal(2 * 6 * 2) + 1j * rng.standard_normal(2 * 6 * 2)
    direct = expand_block(pilot, l_r) @ h
    h3 = h.reshape(l_r, 6, 2)
    manual = np.einsum("kt,rkt->rk", entries, h3).ravel()
    np.testing.assert_allclose(direct, manual, atol=1e-12)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        generate_periodic_pilot(2, 2, rho=-1.0)
    with pytest.raises(ParameterError):
        generate_periodic_pilot(2, 2, scrambling=[1.0, 1.0])  # wrong length
    with pytest.raises(ParameterError):
        generate_periodic_pilot(2, 2, scrambling=[1.0, 2.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        generate_periodic_pilot(2, 2, unitary_core=np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ParameterError):
        generate_td_pilot(0, 3)


def test_size_arguments_must_be_integers():
    # a float or a bool size is rejected by name, never passed on to numpy
    # (a TypeError) or read as 1
    for make in (generate_td_pilot, generate_periodic_pilot):
        for l_t, m, name in ((2.5, 3, "l_t"), (2, 2.5, "m"), (2, True, "m"), (False, 2, "l_t")):
            with pytest.raises(ParameterError, match=name):
                make(l_t, m)
        assert make(np.int64(2), np.int64(3)).n == 6
    pilot = generate_td_pilot(2, 3)
    for l_r in (2.5, True, 0):
        with pytest.raises(ParameterError, match="l_r"):
            expand_block(pilot, l_r)


def test_entries_are_read_only():
    pilot = generate_td_pilot(2, 2)
    with pytest.raises(ValueError):
        pilot.entries[0, 0] = 5.0


def test_custom_pilot_reports_orthogonality():
    skewed = custom_pilot(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert skewed.structure is PilotStructure.CUSTOM
    assert not skewed.is_orthogonal()
    assert skewed.orthogonality_defect() > 0.1


def test_with_power_rescales():
    pilot = generate_td_pilot(2, 3, rho=1.0)
    boosted = pilot.with_power(4.0)
    np.testing.assert_allclose(boosted.entries, 2.0 * pilot.entries)
    assert boosted.rho == 4.0


def test_config_round_trip(rng):
    scrambling = np.exp(2j * np.pi * rng.random(6))
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    core, _ = np.linalg.qr(raw)
    # within np.allclose's default tolerances of the defaults, but not equal
    near_ones = np.exp(1e-7j * np.arange(8))
    angle = 1e-9
    near_identity = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    for pilot in (generate_periodic_pilot(3, 2, 1.5, scrambling, core),
                  generate_td_pilot(3, 2, 0.7, scrambling),
                  generate_periodic_pilot(2, 4),
                  custom_pilot(rng.standard_normal((4, 2)) + 0j),
                  generate_td_pilot(2, 4, 1.2, near_ones),
                  generate_periodic_pilot(2, 4, 1.2, near_ones, near_identity),
                  generate_periodic_pilot(2, 4, 1.2, None, near_identity)):
        rebuilt = pilot_from_config(pilot_to_config(pilot))
        np.testing.assert_array_equal(rebuilt.entries, pilot.entries)
        np.testing.assert_array_equal(rebuilt.scrambling, pilot.scrambling)
        assert rebuilt.structure == pilot.structure


_TD = generate_td_pilot(2, 3)


@pytest.mark.parametrize("pilot, structure", [
    # reversed rows: the spec would rebuild the generator's order
    pytest.param(PilotMatrix(_TD.entries[::-1], _TD.rho, _TD.structure, _TD.scrambling),
                 "td", id="reversed-td"),
    # 3 x 2 is no whole number of 2 x 2 cores: the spec would give 2 x 2
    pytest.param(PilotMatrix(np.array([[1, 0], [0, 1], [1, 0]]), 1.0, PilotStructure.PERIODIC,
                             np.ones(3)), "periodic", id="periodic-3x2"),
    # the TD spec has no core, so a TD pilot's core would be dropped
    pytest.param(PilotMatrix(_TD.entries, _TD.rho, _TD.structure, _TD.scrambling,
                             unitary_core=np.eye(2)), "td", id="td-with-core"),
])
def test_config_round_trip_rejects_hand_built_pilots(pilot, structure):
    # a periodic or TD pilot is written as its generator's spec, so a pilot
    # that spec would not rebuild is named, not silently changed
    with pytest.raises(ParameterError, match=f"this {structure} pilot's entries, scrambling or "
                                             f"core are not those of the {structure} generator"):
        pilot_to_config(pilot)


def test_non_finite_pilots_are_rejected_by_name():
    nan, inf = float("nan"), float("inf")
    td = generate_td_pilot(2, 2)
    cases = [(lambda: generate_td_pilot(2, 2, scrambling=[nan, 1, 1, 1]), "scrambling"),
             (lambda: generate_periodic_pilot(2, 2, scrambling=[1, inf, 1, 1]), "scrambling"),
             (lambda: generate_periodic_pilot(2, 2, inf), "rho"),
             (lambda: generate_td_pilot(2, 2, nan), "rho"),
             (lambda: td.with_power(inf), "rho"),
             (lambda: custom_pilot([[1.0, nan], [0.0, 1.0]]), "entries"),
             (lambda: custom_pilot([[1.0, 0.0], [inf, 1.0]]), "entries"),
             (lambda: PilotMatrix(td.entries, nan, td.structure, td.scrambling), "rho"),
             (lambda: PilotMatrix(np.where(td.entries == 0, nan, td.entries), td.rho,
                                  td.structure, td.scrambling), "entries"),
             (lambda: pilot_from_config({"structure": "td", "l_t": 2, "m": 2,
                                         "scrambling": ["nan", 1, 1, 1]}), "scrambling"),
             (lambda: pilot_from_config({"structure": "periodic", "l_t": 2, "m": 2,
                                         "rho": "inf"}), "rho"),
             (lambda: pilot_from_config({"structure": "custom",
                                         "entries": [["1", "nan"]]}), "entries"),
             # a finite rho whose total power n*rho, the power trace, overflows
             (lambda: generate_td_pilot(4, 5, 1e307), "total power n\\*rho"),
             (lambda: generate_periodic_pilot(4, 5, 1.58e308), "total power n\\*rho"),
             (lambda: td.with_power(1e308), "total power n\\*rho"),
             (lambda: PilotMatrix(td.entries, 1e308, td.structure, td.scrambling),
              "total power n\\*rho"),
             # finite custom entries whose power trace would overflow, rejected
             # before it is taken (a RuntimeWarning fails the test)
             (lambda: custom_pilot([[1e200, 0], [0, 1e200]]), "total power n\\*rho"),
             (lambda: custom_pilot([[1e154, 1e154j]]), "total power n\\*rho"),
             (lambda: custom_pilot([[1.7e308 + 1.7e308j]]), "total power n\\*rho"),
             # so are those of a pilot built directly, whose rho is finite
             (lambda: PilotMatrix(np.array([[1e200], [1e200]]), 1.0, PilotStructure.CUSTOM,
                                  np.ones(2)), "entries have average power inf, expected rho=1")]
    for make, name in cases:
        with pytest.raises(ParameterError, match=name):
            make()
    # just below the overflow the trace is finite and the pilot is built
    assert generate_td_pilot(2, 5, 1.7e307).rho == 1.7e307
    assert custom_pilot([[1e153, 0], [0, 1e153]]).rho == 1e306


def test_config_input_errors_name_the_key():
    good = {"structure": "td", "l_t": 2, "m": 3, "rho": 1.5}
    cases = [({"structure": "zadoff"}, "structure"),
             ({"l_t": "two"}, "l_t"),
             ({"l_t": 2.7}, "l_t"),
             ({"l_t": True}, "l_t"),
             ({"m": 1.5}, "m"),
             ({"rho": "x"}, "rho")]
    for change, key in cases:
        with pytest.raises(ParameterError, match=key):
            pilot_from_config({**good, **change})
    for key in ("l_t", "m"):
        cfg = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ParameterError, match=key):
            pilot_from_config(cfg)
    for entries in (None, [[1.0, "x"]], [[1.0, 2.0], [3.0]]):
        cfg = {"structure": "custom"} if entries is None else {"structure": "custom",
                                                                "entries": entries}
        with pytest.raises(ParameterError, match="entries"):
            pilot_from_config(cfg)
    for change, key in (({"scrambling": ["1", "x", 1, 1, 1, 1]}, "scrambling"),
                        ({"scrambling": "zeros"}, "scrambling"),
                        ({"structure": "periodic", "core": [[1, 0], [0]]}, "core"),
                        ({"structure": "periodic", "core": "dft"}, "core")):
        with pytest.raises(ParameterError, match=key):
            pilot_from_config({**good, **change})
    # spelled-out and integral numbers are accepted, as in the CLI config
    pilot = pilot_from_config({**good, "l_t": "2", "m": 3.0, "rho": "1.5"})
    np.testing.assert_array_equal(pilot.entries, generate_td_pilot(2, 3, 1.5).entries)


def test_malformed_pilots_are_rejected_by_name():
    td = generate_td_pilot(2, 2)
    entries = r"pilot entries \(n, l_t\) must have shape \(any, any\), got "
    cases = [(lambda: PilotMatrix(td.entries[:, 0], td.rho, td.structure, td.scrambling),
              entries + r"\(4,\)"),
             (lambda: custom_pilot(np.zeros((0, 2))), "pilot length n must be an integer >= 1, got 0"),
             (lambda: custom_pilot(np.ones(3)), entries + r"\(3,\)"),
             (lambda: custom_pilot([[1.0, "x"]]),
              r"pilot entries \(n, l_t\) must be an array of numbers, got list"),
             (lambda: PilotMatrix(td.entries, td.rho, td.structure, np.ones(3)),
              r"scrambling must have shape \(4,\), got \(3,\)"),
             (lambda: PilotMatrix(td.entries, 2.0, td.structure, td.scrambling),
              "entries have average power 1, expected rho=2"),
             (lambda: generate_periodic_pilot(2, 2, unitary_core=np.ones((2, 3))),
              r"unitary core \(l_t x l_t\) must have shape \(2, 2\), got \(2, 3\)"),
             # the generators apply the scrambling, core and power rules of
             # PilotMatrix itself, with the same messages
             (lambda: generate_td_pilot(2, 2, scrambling=np.ones(3)),
              r"scrambling must have shape \(4,\), got \(3,\)"),
             (lambda: generate_periodic_pilot(2, 2, scrambling=[1, 1j, 2, 1]),
              "scrambling entries must have unit modulus"),
             (lambda: td.with_power(-1.0), "pilot power rho must be positive"),
             # a core of another size than l_t, or with a NaN, is named too
             (lambda: generate_periodic_pilot(2, 2, unitary_core=np.eye(3)),
              r"unitary core \(l_t x l_t\) must have shape \(2, 2\), got \(3, 3\)"),
             (lambda: PilotMatrix(td.entries, td.rho, td.structure, td.scrambling,
                                  unitary_core=np.eye(3)),
              r"unitary core \(l_t x l_t\) must have shape \(2, 2\), got \(3, 3\)"),
             (lambda: PilotMatrix(td.entries, td.rho, td.structure, td.scrambling,
                                  unitary_core=[[1, 0], [0, np.nan]]),
              r"^unitary core \(l_t x l_t\) has non-finite entries$"),
             # expand_block takes raw entries too, and names their shape
             (lambda: expand_block(np.zeros(3), 2), entries + r"\(3,\)"),
             (lambda: expand_block(np.zeros((2, 2, 2)), 2), entries + r"\(2, 2, 2\)"),
             # rho is read by the scalar rule before it is compared
             (lambda: generate_td_pilot(2, 2, "x"), "^pilot power rho must be float, got 'x'$"),
             (lambda: generate_periodic_pilot(2, 2, True),
              "^pilot power rho must be float, got True$"),
             (lambda: td.with_power(1j), r"^pilot power rho must be float, got 1j$"),
             (lambda: PilotMatrix(td.entries, None, td.structure, td.scrambling),
              "^pilot power rho must be float, got None$")]
    for make, message in cases:
        with pytest.raises(ParameterError, match=message):
            make()
    # a string that spells a number is read as one
    for pilot in (generate_td_pilot(2, 2, "1"), td.with_power("1"),
                  PilotMatrix(td.entries, "1", td.structure, td.scrambling)):
        assert type(pilot.rho) is float
        np.testing.assert_array_equal(pilot.entries, td.entries)
