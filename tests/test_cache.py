"""The append-only results cache."""

import json
from fractions import Fraction

from nilprob import cache as cache_module
from nilprob.cache import (
    CACHE_FILENAME,
    ENV_CACHE_DIR,
    ResultCache,
    default_cache_dir,
    np_key,
    sup_key,
)
from nilprob.exact import np_fast, np_sup
from nilprob.groups import catalog_get
from nilprob.structure import left_coset_reps, normal_subgroups

from seeded import stream_rng


def test_roundtrip(tmp_path):
    with ResultCache(tmp_path) as cache:
        cache.put_np(np_key("hash", (0, 1, 2), (0, 0)), Fraction(1, 3), 3, 9)
        assert cache.get_np(np_key("hash", (0, 1, 2), (0, 0))) == (Fraction(1, 3), 3, 9)
        assert cache.get_np(np_key("hash", (0, 1), (0, 0))) is None
        cache.put_sup(sup_key("hash", (0, 1), 2), (Fraction(1), (0, 0, 0)))
        assert cache.get_sup(sup_key("hash", (0, 1), 2)) == (Fraction(1), (0, 0, 0))


def test_persists_across_instances(tmp_path):
    with ResultCache(tmp_path) as a:
        a.put_np(np_key("h", (0,), (0, 0)), Fraction(1), 4, 4)
    b = ResultCache(tmp_path)
    assert b.get_np(np_key("h", (0,), (0, 0))) == (Fraction(1), 4, 4)
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
    with ResultCache(tmp_path) as cache:
        assert len(cache) == 0
        cache.put_np(np_key("h", (0,), (0,)), Fraction(1, 2), 1, 2)
        assert ResultCache(tmp_path).get_np(np_key("h", (0,), (0,))) == (Fraction(1, 2), 1, 2)


def test_skips_lines_whose_fields_do_not_parse(tmp_path):
    good = {"schema": 2, "key": "good", "kind": "np", "value": "1/2", "counted": 1, "total": 2}
    bad = [
        {**good, "key": "no-counted", "counted": None},
        {k: v for k, v in good.items() if k != "total"},
        {**good, "value": "abc"},
        {**good, "value": "1/0"},
        {**good, "counted": True},
        {**good, "kind": "nope"},
        {**good, "key": 5},
        {"schema": 2, "key": "sup", "kind": "sup", "value": "1/1", "witness": ["0"]},
        {"schema": 2, "key": "sup", "kind": "sup", "value": "1/1", "witness": 0},
        ["not", "an", "object"],
        "text",
    ]
    lines = [json.dumps(entry) for entry in bad] + ["", json.dumps(good)]
    (tmp_path / CACHE_FILENAME).write_text("\n".join(lines) + "\n")
    cache = ResultCache(tmp_path)
    assert len(cache) == 1
    assert cache.get_np("good") == (Fraction(1, 2), 1, 2)
    assert cache.get_sup("good") is None  # an np entry is not a supremum
    assert cache.get_sup("sup") is None


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_randomized_probes_match_recomputation(tmp_path):
    # cache hits must equal recomputation on 100 randomized probes
    rng = stream_rng(990)
    groups = [catalog_get(n) for n in ["S(3)", "Q8", "A(4)", "D(12)", "C(10)"]]
    probes = []
    with ResultCache(tmp_path) as cache:
        for _ in range(100):
            g = groups[rng.randrange(len(groups))]
            normals = normal_subgroups(g)
            h = normals[rng.randrange(len(normals))]
            k = rng.choice((1, 2))
            reps = left_coset_reps(g, h)
            shifts = tuple(reps[rng.randrange(len(reps))] for _ in range(k + 1))
            result = np_fast(g, h, shifts)
            cache.put_np(np_key(g.table_hash, h.elements, shifts),
                         result.value, result.counted_tuples, result.total_tuples)
            probes.append((g, h, shifts, result))
    reloaded = ResultCache(tmp_path)
    for g, h, shifts, result in probes:
        hit = reloaded.get_np(np_key(g.table_hash, h.elements, shifts))
        assert hit is not None
        value, counted, total = hit
        fresh = np_fast(g, h, shifts)
        assert (value, counted, total) == (
            fresh.value, fresh.counted_tuples, fresh.total_tuples
        )


def test_sup_cache_speeds_verify(tmp_path):
    from nilprob.verify import CorpusConfig, run_corpus

    cfg = CorpusConfig(group_names=["S(4)", "SL(2,3)"], ks=(1, 2), k_order_limits={})
    with ResultCache(tmp_path) as cache:
        first = run_corpus(cfg, cache)
    assert len(cache) > 0
    with ResultCache(tmp_path) as warm:
        second = run_corpus(cfg, warm)
    assert json.dumps(first.to_json(include_timing=False), sort_keys=True) == \
        json.dumps(second.to_json(include_timing=False), sort_keys=True)


def test_keying_includes_subgroup_and_shifts(tmp_path):
    g = catalog_get("S(3)")
    s3_sup = np_sup(g, normal_subgroups(g)[-1], 1)
    with ResultCache(tmp_path) as cache:
        cache.put_sup(sup_key(g.table_hash, normal_subgroups(g)[-1].elements, 1), s3_sup)
    assert cache.get_sup(sup_key(g.table_hash, normal_subgroups(g)[-1].elements, 1)) == s3_sup
    assert cache.get_sup(sup_key(g.table_hash, normal_subgroups(g)[0].elements, 1)) is None
    assert cache.get_sup(sup_key(g.table_hash, normal_subgroups(g)[-1].elements, 2)) is None
    assert cache.get_sup(sup_key("otherhash", normal_subgroups(g)[-1].elements, 1)) is None
    # np and sup entries of the same subgroup and k never collide
    assert cache.get_np(np_key(g.table_hash, normal_subgroups(g)[-1].elements, (0, 0))) is None


def test_interleaved_instances_keep_every_entry(tmp_path):
    # each instance holds its own append handle; whole lines interleave
    a, b = ResultCache(tmp_path), ResultCache(tmp_path)
    with a, b:
        for i in range(20):
            (a if i % 2 else b).put_np(np_key("h", (0, i), (0, 0)), Fraction(1, i + 1), 1, i + 1)
            (b if i % 3 else a).put_sup(sup_key("h", (i,), 1), (Fraction(1, i + 2), (0, i)))
    loaded = ResultCache(tmp_path)
    assert len(loaded) == 40
    for i in range(20):
        assert loaded.get_np(np_key("h", (0, i), (0, 0))) == (Fraction(1, i + 1), 1, i + 1)
        assert loaded.get_sup(sup_key("h", (i,), 1)) == (Fraction(1, i + 2), (0, i))
    lines = (tmp_path / CACHE_FILENAME).read_text().splitlines()
    assert len(lines) == 40 and all(json.loads(line)["schema"] for line in lines)


def test_one_append_handle_until_close(tmp_path, monkeypatch):
    appends = []

    def counting_open(path, mode="r", **kwargs):
        if mode == "a":
            appends.append(path)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
    directory = tmp_path / "made-at-first-put"
    with ResultCache(directory) as cache:
        assert not directory.exists()
        for i in range(5):
            cache.put_np(np_key("h", (i,), (0,)), Fraction(1), 1, 1)
        # every entry is on disk before the handle closes
        assert len(ResultCache(directory)) == 5
    assert appends == [directory / CACHE_FILENAME]
    cache.put_np(np_key("h", (9,), (0,)), Fraction(1), 1, 1)  # a put after close reopens
    cache.close()
    assert len(appends) == 2 and len(ResultCache(directory)) == 6


def test_each_lookup_hashes_its_key_once(tmp_path, monkeypatch, capsys):
    # a miss used to hash its key twice, in the lookup and again in the store
    from nilprob.cli import main
    from nilprob.verify import CorpusConfig, run_corpus

    kinds, lookups = [], []
    real_key, real_get = cache_module._key, ResultCache.get_sup

    def counting_key(kind, *args):
        kinds.append(kind)
        return real_key(kind, *args)

    def counting_get(self, key):
        lookups.append(key)
        return real_get(self, key)

    monkeypatch.setattr(cache_module, "_key", counting_key)
    monkeypatch.setattr(ResultCache, "get_sup", counting_get)
    cfg = CorpusConfig(group_names=["S(4)", "SL(2,3)"], ks=(1, 2), k_order_limits={})
    with ResultCache(tmp_path) as cold:
        run_corpus(cfg, cold)
    # a miss is stored under the hash of its lookup; quotients that repeat
    # a table across groups hit even in a cold run
    assert len(kinds) == len(lookups) >= len(cold) > 0
    kinds.clear(), lookups.clear()
    with ResultCache(tmp_path) as warm:
        run_corpus(cfg, warm)
    assert len(kinds) == len(lookups) > 0 and len(warm) == len(cold)

    kinds.clear()
    methods = []
    np_args = ["--format", "json", "np", "--group", "S(3)", "--k", "2",
               "--cache-dir", str(tmp_path / "np")]
    for _ in range(2):  # a miss, then a hit
        assert main(np_args + ["--sup"]) == 0
        assert main(np_args) == 0
        methods.append(json.loads(capsys.readouterr().out.splitlines()[-1])["method"])
    assert kinds == ["sup", "np", "sup", "np"]
    assert methods[1] == "cache" != methods[0]


def test_a_warm_cache_parses_each_line_once(tmp_path, monkeypatch):
    # the value read at load is the value every lookup returns; a put keeps
    # the value it was given, so a cold run parses nothing
    from nilprob.verify import CorpusConfig, run_corpus

    parsed = []
    real_parse = cache_module.parse_fraction

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(cache_module, "parse_fraction", counting_parse)
    cfg = CorpusConfig(group_names=["S(4)", "SL(2,3)"], ks=(1, 2), k_order_limits={})
    with ResultCache(tmp_path) as cold:
        run_corpus(cfg, cold)
        cold.put_np(np_key("h", (0,), (0, 0)), Fraction(1, 2), 1, 2)
    assert parsed == []
    lines = [json.loads(line) for line in (tmp_path / CACHE_FILENAME).read_text().splitlines()]
    assert {e["kind"] for e in lines} == {"np", "sup"}
    warm = ResultCache(tmp_path)
    assert sorted(parsed) == sorted(e["value"] for e in lines)
    for e in lines:
        value = (warm.get_np if e["kind"] == "np" else warm.get_sup)(e["key"])
        assert value is not None and value[0] == real_parse(e["value"])
    assert len(parsed) == len(lines)
