"""hot-path: manifest functions stay allocation-free."""

from repro.lint import HotPathRule

BAD_MANIFEST = {
    "fixtures/hot_bad.py": frozenset(
        {"step", "attend", "Decoder.advance", "Decoder.gone"}
    )
}
GOOD_MANIFEST = {"fixtures/hot_good.py": frozenset({"step", "Decoder.advance"})}


def test_bad_fixture_reports_every_allocation(run_rules):
    findings = run_rules("hot_bad.py", [HotPathRule(manifest=BAD_MANIFEST)])
    assert all(f.rule == "hot-path" for f in findings)
    messages = [f.message for f in findings]
    assert any("np.concatenate" in m for m in messages)
    assert any(".copy()" in m for m in messages)
    assert any("np.ascontiguousarray" in m for m in messages)
    assert any("np.vstack" in m for m in messages)
    assert any("grows list 'parts' inside a loop" in m for m in messages)


def test_einsum_contraction_is_flagged(run_rules):
    # np.einsum runs as unblocked C loops with no BLAS: the prefill
    # attention regression the head-major matmul kernel removed.
    findings = run_rules("hot_bad.py", [HotPathRule(manifest=BAD_MANIFEST)])
    assert [f.message for f in findings if "np.einsum" in f.message] == [
        "attend is a hot-path function but calls np.einsum — an allocation per call"
    ]


def test_stale_manifest_entry_is_flagged(run_rules):
    findings = run_rules("hot_bad.py", [HotPathRule(manifest=BAD_MANIFEST)])
    assert any(
        "manifest names 'Decoder.gone'" in f.message for f in findings
    ), "renaming a hot function without updating the manifest must be loud"


def test_good_fixture_is_clean_including_cold_helpers(run_rules):
    assert run_rules("hot_good.py", [HotPathRule(manifest=GOOD_MANIFEST)]) == []


def test_module_not_in_manifest_is_skipped(run_rules):
    assert run_rules("hot_bad.py", [HotPathRule(manifest=GOOD_MANIFEST)]) == []


def test_default_manifest_points_at_real_functions():
    # Every default manifest entry must resolve against the live tree —
    # the staleness guard in reverse (see test_gate for the live run).
    from repro.lint import HOT_PATHS

    for suffix, names in HOT_PATHS.items():
        assert suffix.endswith(".py")
        assert names, f"{suffix}: empty manifest entry"
