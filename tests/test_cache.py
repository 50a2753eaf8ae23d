"""The append-only results cache."""

import json
from fractions import Fraction

from nilprob.cache import CACHE_FILENAME, ENV_CACHE_DIR, ResultCache, default_cache_dir
from nilprob.exact import np_fast, np_sup
from nilprob.groups import catalog_get
from nilprob.structure import left_coset_reps, normal_subgroups

from seeded import stream_rng


def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put_np("hash", (0, 1, 2), (0, 0), Fraction(1, 3), 3, 9)
    assert cache.get_np("hash", (0, 1, 2), (0, 0)) == (Fraction(1, 3), 3, 9)
    assert cache.get_np("hash", (0, 1), (0, 0)) is None
    cache.put_sup("hash", (0, 1), 2, (Fraction(1), (0, 0, 0)))
    assert cache.get_sup("hash", (0, 1), 2) == (Fraction(1), (0, 0, 0))


def test_persists_across_instances(tmp_path):
    a = ResultCache(tmp_path)
    a.put_np("h", (0,), (0, 0), Fraction(1), 4, 4)
    b = ResultCache(tmp_path)
    assert b.get_np("h", (0,), (0, 0)) == (Fraction(1), 4, 4)
    assert len(b) == 1


def test_ignores_stale_schema_and_torn_lines(tmp_path):
    path = tmp_path / CACHE_FILENAME
    path.write_text(
        json.dumps({"schema": 0, "key": "old", "kind": "np", "value": "1/2"})
        # schema 1 keyed tables by a decimal-text hash, so its keys are stale
        + "\n" + json.dumps({"schema": 1, "key": "v1", "kind": "np", "value": "1/2",
                             "counted": 1, "total": 2})
        + "\n{ torn line\n"
    )
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    cache.put_np("h", (0,), (0,), Fraction(1, 2), 1, 2)
    assert ResultCache(tmp_path).get_np("h", (0,), (0,)) == (Fraction(1, 2), 1, 2)


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_randomized_probes_match_recomputation(tmp_path):
    # cache hits must equal recomputation on 100 randomized probes
    cache = ResultCache(tmp_path)
    rng = stream_rng(990)
    groups = [catalog_get(n) for n in ["S(3)", "Q8", "A(4)", "D(12)", "C(10)"]]
    probes = []
    for _ in range(100):
        g = groups[rng.randrange(len(groups))]
        normals = normal_subgroups(g)
        h = normals[rng.randrange(len(normals))]
        k = rng.choice((1, 2))
        reps = left_coset_reps(g, h)
        shifts = tuple(reps[rng.randrange(len(reps))] for _ in range(k + 1))
        result = np_fast(g, h, shifts)
        cache.put_np(g.table_hash, h.elements, shifts,
                     result.value, result.counted_tuples, result.total_tuples)
        probes.append((g, h, shifts, result))
    reloaded = ResultCache(tmp_path)
    for g, h, shifts, result in probes:
        hit = reloaded.get_np(g.table_hash, h.elements, shifts)
        assert hit is not None
        value, counted, total = hit
        fresh = np_fast(g, h, shifts)
        assert (value, counted, total) == (
            fresh.value, fresh.counted_tuples, fresh.total_tuples
        )


def test_sup_cache_speeds_verify(tmp_path):
    from nilprob.verify import CorpusConfig, run_corpus

    cfg = CorpusConfig(group_names=["S(4)", "SL(2,3)"], ks=(1, 2), k_order_limits={})
    cache = ResultCache(tmp_path)
    first = run_corpus(cfg, cache)
    assert len(cache) > 0
    warm = ResultCache(tmp_path)
    second = run_corpus(cfg, warm)
    assert json.dumps(first.to_json(include_timing=False), sort_keys=True) == \
        json.dumps(second.to_json(include_timing=False), sort_keys=True)


def test_keying_includes_subgroup_and_shifts(tmp_path):
    g = catalog_get("S(3)")
    s3_sup = np_sup(g, normal_subgroups(g)[-1], 1)
    cache = ResultCache(tmp_path)
    cache.put_sup(g.table_hash, normal_subgroups(g)[-1].elements, 1, s3_sup)
    assert cache.get_sup(g.table_hash, normal_subgroups(g)[0].elements, 1) is None
    assert cache.get_sup(g.table_hash, normal_subgroups(g)[-1].elements, 2) is None
    assert cache.get_sup("otherhash", normal_subgroups(g)[-1].elements, 1) is None
