"""Tests for the benchmark's own checker and call limits.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from perfbench import check, harness, inputs


@pytest.fixture(scope="module")
def truth():
    return inputs.truth_of(inputs.generate(seed=5, n_convs=4, mean_turns=30))


def _write_outputs(out_dir, truth):
    """A correct sharded-plan output tree built from the truth itself."""
    parsed = pa.table(
        {
            "conv_id": truth.column("conv_id"),
            "turn_idx": truth.column("turn_idx"),
            **{col: truth.column(exp) for col, exp in check.COMPARED.items()},
        }
    )
    d = os.path.join(out_dir, "sinks", "parsed", "shard=0")
    os.makedirs(d)
    pq.write_table(parsed, os.path.join(d, "part-00000.parquet"))
    roles = pc.unique(parsed.column("role")).to_pylist()
    for role in roles:
        d = os.path.join(out_dir, "sinks", "by_role", f"role={role}", "shard=0")
        os.makedirs(d)
        pq.write_table(
            parsed.filter(pc.equal(parsed.column("role"), role)),
            os.path.join(d, "part-00000.parquet"),
        )
    vc = parsed.column("role").combine_chunks().value_counts()
    os.makedirs(os.path.join(out_dir, "aggregates"))
    pq.write_table(
        pa.table({"role": vc.field("values"), "n": vc.field("counts")}),
        os.path.join(out_dir, "aggregates", "counts_by_role.parquet"),
    )
    return roles


def test_checker_accepts_correct_outputs(tmp_path, truth):
    _write_outputs(str(tmp_path), truth)
    assert check.check_outputs(str(tmp_path), truth) == []


def test_checker_rejects_one_altered_clean_text(tmp_path, truth):
    _write_outputs(str(tmp_path), truth)
    path = os.path.join(tmp_path, "sinks", "parsed", "shard=0", "part-00000.parquet")
    t = pq.read_table(path)
    texts = t.column("clean_text").to_pylist()
    texts[7] += "x"
    pq.write_table(
        t.set_column(t.schema.get_field_index("clean_text"), "clean_text", pa.array(texts)),
        path,
    )
    problems = check.check_outputs(str(tmp_path), truth)
    assert problems == ["parsed.clean_text differs from expected_clean_text on 1 rows"]


def test_checker_rejects_duplicated_by_role_partition(tmp_path, truth):
    roles = _write_outputs(str(tmp_path), truth)
    src = os.path.join(tmp_path, "sinks", "by_role", f"role={roles[0]}", "shard=0")
    shutil.copytree(src, src.replace("shard=0", "shard=1"))
    problems = check.check_outputs(str(tmp_path), truth)
    assert len(problems) == 1 and problems[0].startswith("by_role sink holds")


def test_checker_rejects_wrong_resume_split():
    assert check.check_resume({"ran": 64, "skipped": 64}, 128) == []
    assert check.check_resume({"ran": 128, "skipped": 0}, 128) != []


def test_call_over_limit_counts_failed_and_leaves_no_ray_process(tmp_path, monkeypatch):
    from perfbench import run as bench

    # a cold first call takes well over a second (worker start-up)
    monkeypatch.setattr(bench, "CALL_LIMIT_S", 0.3)
    b = bench.Bench("sharded", seed=5, seconds=0, trace=False, workdir=str(tmp_path))
    tbl = inputs.generate(seed=5, n_convs=20, mean_turns=60)
    b.in_dir = str(tmp_path / "in")
    inputs.write_sharded(tbl, b.in_dir)
    b.truth, b.n_turns = inputs.truth_of(tbl), tbl.num_rows
    with harness.RaySession(bench.ROOT, bench.RAY_CPUS):
        assert harness.descendants()
        c = b.call()
    assert c.problems and c.problems[0].startswith("CallTimeout")
    assert [x.problems for x in b.calls] == [c.problems]
    assert harness.descendants() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
