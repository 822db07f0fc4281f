"""One parametrized check over every law record and every phi family: the
CLI spec -> JSON round trip, variance against the even moments, symmetry
against the log-MGF, batch independence of log_mgf and phi, and draws that
stream by rows and hold the words their record counts."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from khinchine.distributions import LAWS, Distribution, DistributionError, parse_distribution
from khinchine.genfun import FAMILIES, DomainError, GeneratingFunction, parse_phi
from khinchine.numerics import substream

PARAMETER = 0.7
#: spans both branches of the discrete log-MGF (max lam * v below and above 33)
LAM = np.concatenate([np.linspace(-3.0, 3.0, 250), [-40.0, -17.5, 0.0, 12.0, 17.5, 40.0, 200.0]])
DISCRETE = {
    "discrete-skew": {"law": "discrete", "support": [-2.0, 1.0, 3.0],
                      "probs": [0.5, 0.25, 0.25]},
    "discrete-symmetric": {"law": "discrete", "support": [-2.0, -0.5, 0.0, 0.5, 2.0],
                           "probs": [0.1, 0.25, 0.3, 0.25, 0.1]},
}
TABULATED = {"family": "tabulated", "knots": [0.0, 0.5, 1.0, 2.0, 3.0],
             "values": [0.0, 0.2, 0.7, 2.5, 5.0]}


def _law_specs():
    """(id, CLI spec or JSON descriptor) for every law record; the discrete
    record gets a skew and a symmetric law."""
    out = []
    for name, rec in LAWS.items():
        if len(rec.fields) > 1:  # array fields: only from a file
            out += [(key, obj) for key, obj in DISCRETE.items() if obj["law"] == name]
        else:
            spec = name.replace("_", "-") + (f":{PARAMETER}" if rec.fields else "")
            out.append((name, spec))
    return out


LAW_SPECS = _law_specs()


def _spec(spec, tmp_path):
    if isinstance(spec, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return f"@{path}"
    return spec


def _phi_specs():
    """(id, phi spec) for every family; natural over every law."""
    out = []
    for name, fam in FAMILIES.items():
        if fam.cli is None:
            out.append((name, TABULATED))
        elif fam.cli[0].endswith("<law>"):
            out += [(f"{name}-{key}", (name, spec)) for key, spec in LAW_SPECS]
        elif ":" in fam.cli[0]:
            out.append((name, f"{name}:3"))
        else:
            out.append((name, name))
    return out


PHI_SPECS = _phi_specs()


def _phi(spec, tmp_path):
    if isinstance(spec, tuple):  # natural over a law spec
        name, law = spec
        return parse_phi(f"{name}:{_spec(law, tmp_path)}")
    return parse_phi(_spec(spec, tmp_path))


def _roundtrip(obj, cls):
    return cls.from_json(json.loads(json.dumps(obj.to_json())))


def test_every_record_is_covered():
    assert {d["law"] if isinstance(d, dict) else k for k, d in LAW_SPECS} == set(LAWS)
    assert {k.split("-")[0] for k, _ in PHI_SPECS} == set(FAMILIES)


@pytest.mark.parametrize("spec", [s for _, s in LAW_SPECS], ids=[k for k, _ in LAW_SPECS])
def test_law_record(spec, tmp_path):
    d = parse_distribution(_spec(spec, tmp_path))
    back = _roundtrip(d, Distribution)
    assert back == d and back.label == d.label
    if d.support is not None:
        assert np.array_equal(back.support, d.support)
        assert np.array_equal(back.probs, d.probs)

    assert d.variance == pytest.approx(float(d.even_moments(1)[1]), rel=1e-12)

    pos, neg = d.log_mgf(LAM), d.log_mgf(-LAM)
    finite = np.isfinite(pos) & np.isfinite(neg)
    gap = np.abs(pos - neg)[finite] / np.maximum(np.abs(pos[finite]), 1e-300)
    assert d.is_symmetric == bool(np.all(gap <= 1e-12))

    # every entry alone gets the bits it gets in the batch
    alone = np.array([d.log_mgf(x) for x in LAM])
    assert np.array_equal(alone, pos)
    assert np.array_equal(np.concatenate([d.log_mgf(LAM[i:i + 1]) for i in range(LAM.size)]), pos)


@pytest.mark.parametrize("skip", [0, 1])
@pytest.mark.parametrize("m1", [3, 4])
@pytest.mark.parametrize("spec", [s for _, s in LAW_SPECS], ids=[k for k, _ in LAW_SPECS])
def test_law_draw_streams_by_rows(spec, m1, skip, tmp_path):
    """Rows drawn in one call equal the same rows drawn in two calls on one
    generator, so Monte Carlo chunks can be drawn in blocks of rows; `skip`
    32-bit words are drawn first (Philox keeps half a 64-bit word)."""
    d = parse_distribution(_spec(spec, tmp_path))
    one, two = substream(3, 9), substream(3, 9)
    for g in (one, two):
        g.integers(0, 1 << 32, skip, dtype=np.uint32)
    m2, n = 6, 5
    whole = d.draw(one, (m1 + m2, n))
    parts = np.concatenate([d.draw(two, (m1, n)), d.draw(two, (m2, n))])
    assert whole.shape == (m1 + m2, n)
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("shape", [(64, 32), (200, 7), (4096, 32)])
@pytest.mark.parametrize("spec", [s for _, s in LAW_SPECS], ids=[k for k, _ in LAW_SPECS])
def test_law_draw_holds_at_most_its_draw_words(spec, shape, tmp_path):
    """A drawn element holds at most the record's `draw_words` 8-byte words
    while it is drawn, small draws too (numpy reuses a temporary only above
    256 KiB), plus 4 KiB of interpreter objects: Monte Carlo blocks count
    these words to stay within their budget."""
    d = parse_distribution(_spec(spec, tmp_path))
    d.draw(substream(1, 2), shape)
    rng = substream(1, 2)
    tracemalloc.start()
    try:
        d.draw(rng, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * d.record.draw_words * math.prod(shape) + 4096


@pytest.mark.parametrize("spec", [s for _, s in PHI_SPECS], ids=[k for k, _ in PHI_SPECS])
def test_phi_family(spec, tmp_path):
    phi = _phi(spec, tmp_path)
    back = _roundtrip(phi, GeneratingFunction)
    assert back == phi and back.label == phi.label
    if phi.knots is not None:
        assert np.array_equal(back.knots, phi.knots)
        assert np.array_equal(back.knot_values, phi.knot_values)

    x = LAM[np.abs(LAM) < phi.lambda0]
    with np.errstate(over="ignore"):
        batch = phi(x)
        alone = np.array([phi(v) for v in x])
    assert np.array_equal(alone, batch)


def test_unknown_specs_name_the_catalog():
    with pytest.raises(DistributionError, match=r"known: rademacher, gaussian:<sigma>, .*@file\.json"):
        parse_distribution("cauchy:1")
    with pytest.raises(DistributionError, match="known: rademacher, gaussian,"):
        Distribution.from_json({"law": "cauchy"})
    with pytest.raises(DomainError, match=r"known: subgaussian, power:<m>, natural:<law>, @file\.json"):
        parse_phi("tabulated:3")


@pytest.mark.parametrize("spec", [s for _, s in LAW_SPECS], ids=[k for k, _ in LAW_SPECS])
def test_log_mgf_past_the_double_range_warns_nothing(spec, tmp_path):
    d = parse_distribution(_spec(spec, tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = d.log_mgf(np.array([1e200, -1e200]))
    assert not np.any(np.isnan(y))


@pytest.mark.parametrize("spec", [s for _, s in PHI_SPECS], ids=[k for k, _ in PHI_SPECS])
def test_phi_past_the_double_range_warns_nothing(spec, tmp_path):
    phi = _phi(spec, tmp_path)
    lam = np.clip([1e200, -1e200], -phi.lambda0, phi.lambda0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = phi(lam)
    assert not np.any(np.isnan(y))
