"""The batch experiment runner: specs, execution, artifacts, resume."""

import csv
import json

import pytest

from repro.bench.runner import BenchRow
from repro.bench.sweep import (CSV_COLUMNS, RunSpec, SweepSpec,
                               execute_run, format_records, run_sweep)
from repro.bench import table1, table2
from repro.errors import ReproError
from repro.mc.config import CheckerConfig


def tiny_spec(name="tiny"):
    return SweepSpec.from_axes(name, ["ghz", "bv"], [3], methods=["basic"])


class TestRunSpec:
    def test_defaults_and_label(self):
        spec = RunSpec(model="ghz", size=4)
        assert spec.label == "ghz4"
        assert spec.config == CheckerConfig()
        assert spec.run_id == "ghz4/contraction/tdd/monolithic"

    def test_run_id_includes_params(self):
        spec = RunSpec(model="grover", size=5,
                       config=CheckerConfig(method="contraction",
                                            method_params={"k1": 2,
                                                           "k2": 3}),
                       model_params={"iterations": 2})
        assert spec.run_id == ("grover5/contraction/tdd/monolithic/"
                               "k1=2,k2=3/iterations=2")

    def test_dict_round_trip(self):
        spec = RunSpec(model="qrw", size=5,
                       config=CheckerConfig(method="addition",
                                            method_params={"k": 2}),
                       model_params={"steps": 2})
        assert RunSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("field,value", [
        ("model", "nonsense"), ("method", "nonsense"),
        ("backend", "nonsense"), ("strategy", "nonsense")])
    def test_validation(self, field, value):
        # a strategy other than the two legacy names is still an
        # unknown config field
        with pytest.raises(ReproError):
            if field == "model":
                RunSpec(model=value, size=3)
            else:
                RunSpec.from_dict({"model": "ghz", "size": 3,
                                   "config": {field: value}})


class TestRunSpecConfigForm:
    def test_config_form_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = RunSpec(model="ghz", size=4,
                           config=CheckerConfig(method="basic"))
        assert spec.config.method == "basic"
        assert spec.run_id == "ghz4/basic/tdd/monolithic"

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            RunSpec(model="ghz", size=4, method="basic")

    def test_config_plus_legacy_rejected(self):
        with pytest.raises(TypeError):
            RunSpec(model="ghz", size=4, config=CheckerConfig(),
                    method="basic")

    def test_run_id_format_survives_the_api_change(self):
        # resume keys must match pre-config artifacts; a run stored
        # with the sliced strategy loads as the one contraction path
        # and takes the monolithic run's id
        legacy_style = RunSpec.from_dict({
            "model": "grover", "size": 5,
            "config": {"method": "contraction", "strategy": "sliced",
                       "slice_depth": 3,
                       "method_params": {"k1": 2, "k2": 3}},
            "model_params": {"iterations": 2}})
        assert legacy_style.run_id == (
            "grover5/contraction/tdd/monolithic/k1=2,k2=3/iterations=2")

    def test_spec_run_id_and_round_trip(self):
        run = RunSpec(model="grover", size=3,
                      config=CheckerConfig(method="basic"),
                      spec="AG inv")
        assert run.run_id.endswith("check[AG inv]")
        assert RunSpec.from_dict(run.as_dict()) == run

    def test_from_dict_rejects_legacy_flat_schema(self):
        # engine settings at the top level: the error names the
        # config form instead of guessing
        with pytest.raises(ReproError, match='"config"'):
            RunSpec.from_dict({
                "model": "ghz", "size": 4, "method": "basic",
                "backend": "tdd", "strategy": "monolithic", "jobs": 1,
                "slice_depth": 2, "method_params": {}, "model_params": {},
                "label": "ghz4"})


class TestSweepSpec:
    def test_axes_product(self):
        spec = SweepSpec.from_axes("s", ["ghz", "bv"], [3, 4],
                                   methods=["basic", "contraction"])
        assert len(spec.runs) == 2 * 2 * 2
        assert len({run.run_id for run in spec.runs}) == len(spec.runs)

    def test_from_dict_axes(self):
        spec = SweepSpec.from_dict({
            "name": "tiny", "models": ["ghz"], "sizes": [3],
            "methods": ["contraction"],
            "method_params": {"contraction": {"k1": 2, "k2": 2}}})
        assert spec.runs[0].config.method_params == {"k1": 2, "k2": 2}

    def test_from_dict_explicit_runs(self):
        spec = SweepSpec.from_dict({
            "name": "mine",
            "runs": [{"model": "ghz", "size": 3,
                      "config": {"method": "basic"}}]})
        assert spec.runs[0].model == "ghz"

    def test_from_dict_missing_axes(self):
        with pytest.raises(ReproError):
            SweepSpec.from_dict({"name": "broken"})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec().as_dict()))
        spec = SweepSpec.from_json_file(str(path))
        assert [r.run_id for r in spec.runs] == \
            [r.run_id for r in tiny_spec().runs]

    def test_specs_axis_adds_property_rows(self):
        spec = SweepSpec.from_axes("s", ["grover"], [3],
                                   methods=["basic"],
                                   specs=[None, "AG inv"])
        assert len(spec.runs) == 2
        assert spec.runs[0].spec is None
        assert spec.runs[1].spec == "AG inv"

    def test_dense_runs_deduplicated_across_methods(self):
        # the dense backend ignores methods: crossing it with that
        # axis must not duplicate work
        spec = SweepSpec.from_axes("s", ["ghz"], [3],
                                   methods=["basic", "contraction"],
                                   backends=["tdd", "dense"])
        backends = [r.config.backend for r in spec.runs]
        assert backends.count("dense") == 1
        assert backends.count("tdd") == 2

    def test_from_dict_specs_axis(self):
        spec = SweepSpec.from_dict({
            "name": "props", "models": ["grover"], "sizes": [3],
            "methods": ["basic"], "specs": ["EF marked"]})
        assert spec.runs[0].spec == "EF marked"


class TestExecuteRun:
    def test_record_schema(self):
        record = execute_run(RunSpec(model="ghz", size=3,
                                     config=CheckerConfig(method="basic")))
        assert set(CSV_COLUMNS) <= set(record)
        assert record["dimension"] == 1
        assert record["seconds"] > 0
        assert not record["failed"]

    def test_failure_is_captured_not_raised(self):
        # the dense backend refuses large systems — a failed cell must
        # produce a record, not sink the sweep
        record = execute_run(RunSpec(model="ghz", size=20,
                                     config=CheckerConfig(backend="dense")))
        assert record["failed"]
        assert "ReproError" in record["error"]

    def test_property_check_record(self):
        record = execute_run(RunSpec(
            model="grover", size=3, config=CheckerConfig(method="basic"),
            spec="AG inv"))
        assert record["verdict"] == "holds"
        assert record["spec"] == "AG inv"
        assert record["dimension"] == 2      # the reachable dimension
        assert record["converged"] is True
        assert not record["failed"]

    def test_violated_check_record(self):
        record = execute_run(RunSpec(
            model="grover", size=3, config=CheckerConfig(method="basic"),
            spec="AG marked"))
        assert record["verdict"] == "violated"
        assert record["witness_dimension"] >= 1

    def test_check_record_on_dense_backend(self):
        record = execute_run(RunSpec(
            model="grover", size=3,
            config=CheckerConfig(backend="dense"), spec="AG inv"))
        assert record["verdict"] == "holds"
        assert record["backend"] == "dense"

    def test_direction_bound_and_trace_columns(self):
        record = execute_run(RunSpec(
            model="grover", size=3,
            config=CheckerConfig(method="basic", direction="backward",
                                 bound=2),
            spec="AG plus"))
        assert record["direction"] == "backward"
        assert record["bound"] == 2
        assert record["verdict"] == "violated"
        assert record["trace_length"] == 1
        assert record["trace_valid"] is True
        assert "backward" in record["run_id"]
        assert "bound=2" in record["run_id"]

    def test_image_record_has_default_trace_columns(self):
        record = execute_run(RunSpec(model="ghz", size=3,
                                     config=CheckerConfig(method="basic")))
        assert record["direction"] == "forward"
        assert record["bound"] == 0
        assert record["trace_length"] == 0
        assert record["pool_fallbacks"] == 0


class TestDirectionAxes:
    def test_from_axes_crosses_directions_and_bounds(self):
        spec = SweepSpec.from_axes(
            "dirs", ["grover"], [3], methods=("basic",),
            directions=("forward", "backward"), bounds=(0, 2),
            specs=("AG plus",))
        assert len(spec.runs) == 4
        ids = {run.run_id for run in spec.runs}
        assert len(ids) == 4
        assert any("dir=backward" in rid for rid in ids)
        assert any("bound=2" in rid for rid in ids)

    def test_forward_unbounded_run_id_unchanged(self):
        # legacy artifacts must still resume: default direction/bound
        # leave the pre-existing run_id format untouched
        run = RunSpec(model="ghz", size=4,
                      config=CheckerConfig(method="basic"))
        assert run.run_id == "ghz4/basic/tdd/monolithic"

    def test_from_dict_direction_axes(self):
        spec = SweepSpec.from_dict({
            "name": "d", "models": ["ghz"], "sizes": [3],
            "methods": ["basic"], "directions": ["backward"],
            "bounds": [1], "specs": ["AG init"]})
        assert spec.runs[0].config.direction == "backward"
        assert spec.runs[0].config.bound == 1

    def test_bounds_axis_skipped_for_image_rows(self):
        # a plain image benchmark is one step: crossing the bounds axis
        # in would record the same measurement under distinct run_ids
        spec = SweepSpec.from_axes("b", ["ghz"], [3], methods=("basic",),
                                   bounds=(0, 2, 4))
        assert len(spec.runs) == 1
        assert spec.runs[0].config.bound == 0


class TestRunSweep:
    def test_inline_order_and_artifacts(self, tmp_path):
        result = run_sweep(tiny_spec(), out_dir=str(tmp_path))
        assert [r["model"] for r in result.records] == ["ghz", "bv"]
        data = json.loads((tmp_path / "tiny.json").read_text())
        assert len(data["records"]) == 2
        with open(tmp_path / "tiny.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["run_id"] for row in rows] == \
            [r["run_id"] for r in result.records]

    def test_resume_skips_recorded_runs(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, out_dir=str(tmp_path))
        assert first.skipped == 0
        second = run_sweep(spec, out_dir=str(tmp_path))
        assert second.skipped == 2
        # resumed records are identical to the stored ones
        assert [r["seconds"] for r in second.records] == \
            [r["seconds"] for r in first.records]

    def test_partial_artifact_resumes_remaining(self, tmp_path):
        spec = tiny_spec()
        # simulate a sweep killed after its first run
        half = SweepSpec(name=spec.name, runs=spec.runs[:1])
        run_sweep(half, out_dir=str(tmp_path))
        result = run_sweep(spec, out_dir=str(tmp_path))
        assert result.skipped == 1
        assert len(result.records) == 2

    def test_resume_retries_failed_runs(self, tmp_path):
        # a dense run over the size guard fails; the failure must be
        # recorded but retried (not resumed) on the next invocation
        bad = RunSpec(model="ghz", size=20,
                      config=CheckerConfig(backend="dense"))
        spec = SweepSpec(name="redo", runs=[bad])
        first = run_sweep(spec, out_dir=str(tmp_path))
        assert first.records[0]["failed"]
        second = run_sweep(spec, out_dir=str(tmp_path))
        assert second.skipped == 0  # failed cell was re-attempted

    def test_no_resume_recomputes(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, out_dir=str(tmp_path))
        result = run_sweep(spec, out_dir=str(tmp_path), resume=False)
        assert result.skipped == 0

    def test_stale_artifact_entries_dropped(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, out_dir=str(tmp_path))
        shrunk = SweepSpec(name=spec.name, runs=spec.runs[:1])
        result = run_sweep(shrunk, out_dir=str(tmp_path))
        assert len(result.records) == 1

    def test_parallel_fan_out(self, tmp_path):
        result = run_sweep(tiny_spec(), jobs=2, out_dir=str(tmp_path))
        assert len(result.records) == 2
        assert not result.failed
        # spec order preserved regardless of completion order
        assert [r["model"] for r in result.records] == ["ghz", "bv"]

    def test_progress_messages(self):
        messages = []
        run_sweep(tiny_spec(), progress=messages.append)
        assert len(messages) == 2

    def test_format_records_table(self):
        result = run_sweep(tiny_spec())
        text = format_records(result.records)
        assert "ghz3/basic/tdd/monolithic" in text

    def test_property_check_sweep_resumes_and_emits_verdict_csv(
            self, tmp_path):
        # the acceptance scenario: a sweep spec JSON containing a
        # property check resumes and its CSV carries verdict columns
        spec_path = tmp_path / "props.json"
        spec_path.write_text(json.dumps({
            "name": "props", "models": ["grover"], "sizes": [3],
            "methods": ["basic"], "specs": ["AG inv", "AG marked"]}))
        spec = SweepSpec.from_json_file(str(spec_path))
        out_dir = tmp_path / "artifacts"
        first = run_sweep(spec, out_dir=str(out_dir))
        assert [r["verdict"] for r in first.records] == \
            ["holds", "violated"]
        again = run_sweep(SweepSpec.from_json_file(str(spec_path)),
                          out_dir=str(out_dir))
        assert again.skipped == 2
        assert [r["verdict"] for r in again.records] == \
            ["holds", "violated"]
        with open(out_dir / "props.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["verdict"] for row in rows] == ["holds", "violated"]
        assert rows[0]["spec"] == "AG inv"
        assert rows[1]["witness_dimension"] != "0"


class TestDriverAxisAndWarmStart:
    def test_csv_columns_stable(self):
        # the artifact schema is a compatibility contract: downstream
        # dashboards parse these columns by name and position
        assert CSV_COLUMNS == (
            "run_id", "label", "model", "size", "method", "backend",
            "strategy", "jobs", "slice_depth", "driver", "direction",
            "bound", "spec", "verdict", "witness_dimension",
            "trace_length", "trace_valid", "iterations", "converged",
            "cache_warm", "store_hit", "dimension", "seconds",
            "max_nodes",
            "contractions", "additions", "cache_hits", "cache_misses",
            "cache_hit_rate", "add_hit_rate", "cont_hit_rate",
            "cache_evictions", "slices",
            "parallel_tasks", "pool_fallbacks", "gc_runs",
            "nodes_reclaimed", "peak_live_nodes", "live_nodes",
            "failed", "error",
        )

    def test_default_driver_keeps_run_id_format(self):
        # legacy artifacts must still resume
        run = RunSpec(model="ghz", size=4,
                      config=CheckerConfig(method="basic"))
        assert run.run_id == "ghz4/basic/tdd/monolithic"

    def test_runs_form_without_driver_keeps_run_id(self):
        # a check row written before frontier became the engine default
        # names no schedule, so its artifact still resumes
        spec = SweepSpec.from_dict({"runs": [
            {"model": "grover", "size": 3, "spec": "AG inv",
             "config": {"method": "basic"}},
            {"model": "grover", "size": 3, "spec": "AG inv"}]})
        assert [run.run_id for run in spec.runs] == \
            ["grover3/basic/tdd/monolithic/check[AG inv]",
             "grover3/contraction/tdd/monolithic/check[AG inv]"]

    def test_parent_format_spec_with_batched_key_keeps_run_ids(self):
        # every artifact spec written while the batched weight kernel
        # existed carries "batched": true in each run's config
        def config(method, direction, driver):
            return {"backend": "tdd", "batched": True, "bound": 0,
                    "direction": direction, "driver": driver,
                    "jobs": None, "max_qubits": None, "method": method,
                    "method_params": {}, "slice_depth": 2,
                    "strategy": "monolithic"}

        def run(spec, **cfg):
            return {"config": config(**cfg), "label": "grover3",
                    "model": "grover", "model_params": {}, "size": 3,
                    "spec": spec}

        spec = SweepSpec.from_dict({"name": "p", "runs": [
            run(None, method="basic", direction="forward",
                driver="sequential"),
            run("AG inv", method="contraction", direction="backward",
                driver="frontier"),
            run("AG inv", method="basic", direction="forward",
                driver="sequential")]})
        # a row that named a schedule explicitly (here the frontier
        # one) loses that segment: there is only one schedule left
        assert [r.run_id for r in spec.runs] == [
            "grover3/basic/tdd/monolithic",
            "grover3/contraction/tdd/monolithic/dir=backward/check[AG inv]",
            "grover3/basic/tdd/monolithic/check[AG inv]"]

    def test_image_rows_run_id_ignores_driver(self):
        # an image row written with a schedule in its config keeps the
        # run_id the table benchmarks have always used
        run = RunSpec.from_dict({
            "model": "ghz", "size": 3,
            "config": {"method": "basic", "driver": "frontier"}})
        assert run.config == CheckerConfig(method="basic")
        assert run.run_id == "ghz3/basic/tdd/monolithic"

    def test_parent_artifact_resumes_without_recomputing(
            self, tmp_path, monkeypatch):
        # an artifact written while the driver, jobs and strategy knobs
        # existed: every config names driver "sequential" and jobs
        # null, and the sliced rows' run_ids name jobs=1.  The sliced
        # runs collapse into the monolithic ones, which resume; the
        # sliced records are left behind without an error
        def run(strategy, spec):
            return {"model": "grover", "size": 3, "label": "grover3",
                    "model_params": {}, "spec": spec,
                    "config": {"backend": "tdd", "method": "basic",
                               "strategy": strategy, "jobs": None,
                               "slice_depth": 2, "method_params": {},
                               "max_qubits": None, "direction": "forward",
                               "bound": 0, "driver": "sequential"}}

        runs = [run("monolithic", None), run("sliced", None),
                run("monolithic", "AG inv"), run("sliced", "AG inv")]
        run_ids = ["grover3/basic/tdd/monolithic",
                   "grover3/basic/tdd/sliced/jobs=1,depth=2",
                   "grover3/basic/tdd/monolithic/check[AG inv]",
                   "grover3/basic/tdd/sliced/jobs=1,depth=2/check[AG inv]"]
        records = [{"run_id": run_id, "failed": False, "dimension": 2,
                    "seconds": 0.01, "verdict": "holds" if "check" in
                    run_id else "", "jobs": 1, "driver": "sequential"}
                   for run_id in run_ids]
        artifact = {"name": "parent",
                    "spec": {"name": "parent", "runs": runs},
                    "records": records}
        (tmp_path / "parent.json").write_text(json.dumps(artifact))

        def recompute(*_args, **_kwargs):
            raise AssertionError("a recorded row was recomputed")

        monkeypatch.setattr("repro.bench.sweep.execute_run", recompute)
        spec = SweepSpec.from_dict(artifact["spec"])
        monolithic = [0, 2]
        assert [r.run_id for r in spec.runs] == \
            [run_ids[i] for i in monolithic]
        assert [r.run_id for r in SweepSpec.from_axes(
            "parent", ["grover"], [3], methods=["basic"],
            specs=[None, "AG inv"]).runs] == \
            [run_ids[i] for i in monolithic]
        result = run_sweep(spec, out_dir=str(tmp_path))
        assert result.skipped == len(monolithic)
        assert result.records == [records[i] for i in monolithic]

    def test_legacy_strategy_axes_collapse(self):
        plain = SweepSpec.from_dict({"models": ["ghz"], "sizes": [3],
                                     "methods": ["basic"]})
        legacy = SweepSpec.from_dict({
            "models": ["ghz"], "sizes": [3], "methods": ["basic"],
            "strategies": ["monolithic", "sliced"], "slice_depth": 3})
        assert legacy.runs == plain.runs

    @pytest.mark.parametrize("axes", [{"strategies": ["nonsense"]},
                                      {"slice_depth": -1},
                                      {"slice_depth": "2"}])
    def test_other_strategy_axes_rejected(self, axes):
        with pytest.raises(ReproError, match="unknown"):
            SweepSpec.from_dict(dict(models=["ghz"], sizes=[3], **axes))

    def test_execute_run_records_driver_and_cache_columns(self):
        # the columns of the removed knobs hold the one remaining path
        record = execute_run(RunSpec(
            model="grover", size=3, config=CheckerConfig(method="basic"),
            spec="AG inv"))
        assert record["driver"] == "frontier"
        assert record["jobs"] == 1
        assert record["parallel_tasks"] == record["pool_fallbacks"] == 0
        assert (record["strategy"], record["slice_depth"],
                record["slices"]) == ("monolithic", 2, 0)
        assert record["cache_warm"] is False
        assert record["verdict"] == "holds"

    def test_image_record_driver_defaults(self):
        record = execute_run(RunSpec(
            model="qrw", size=3, config=CheckerConfig(method="basic")))
        assert record["driver"] == "frontier"
        assert record["jobs"] == 1
        assert record["parallel_tasks"] == record["pool_fallbacks"] == 0
        assert record["cache_warm"] is False

    def test_sweep_warm_starts_config_cells(self, tmp_path):
        # the acceptance scenario: two configurations differing only in
        # the image method share one reachability fixpoint — the second
        # row is warm-started with an unchanged reachable dimension
        spec = SweepSpec.from_axes(
            "warm", ["grover"], [3],
            methods=("basic", "contraction"), specs=("AG inv",),
            method_params={"contraction": {"k1": 2, "k2": 2}})
        result = run_sweep(spec, out_dir=str(tmp_path))
        assert [r["cache_warm"] for r in result.records] == [False, True]
        assert [r["verdict"] for r in result.records] == \
            ["holds", "holds"]
        assert len({r["dimension"] for r in result.records}) == 1
        with open(tmp_path / "warm.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["cache_warm"] for row in rows] == ["False", "True"]
        assert [row["driver"] for row in rows] == \
            ["frontier", "frontier"]

    def test_no_warm_start_keeps_rows_cold(self, tmp_path):
        # benchmarking sweeps must be able to opt out: every row then
        # pays its own full iteration ladder
        spec = SweepSpec.from_axes(
            "cold", ["grover"], [3],
            methods=("basic", "contraction"), specs=("AG inv",),
            method_params={"contraction": {"k1": 2, "k2": 2}})
        result = run_sweep(spec, out_dir=str(tmp_path), warm_start=False)
        assert [r["cache_warm"] for r in result.records] == [False, False]

    def test_warm_rows_keyed_per_direction(self, tmp_path):
        # backward rows must not reuse the forward fixpoint (different
        # seed and transition relation): each direction warms only its
        # own repeats
        spec = SweepSpec.from_axes(
            "dirs", ["grover"], [3],
            methods=("basic", "contraction"), specs=("AG plus",),
            directions=("forward", "backward"),
            method_params={"contraction": {"k1": 2, "k2": 2}})
        result = run_sweep(spec, out_dir=str(tmp_path))
        by_direction = {}
        for record in result.records:
            by_direction.setdefault(record["direction"], []).append(
                record["cache_warm"])
        assert by_direction["forward"] == [False, True]
        assert by_direction["backward"] == [False, True]


class TestResultStoreSweep:
    def _spec(self, name):
        return SweepSpec.from_axes(
            name, ["grover", "ghz"], [3], methods=("basic",),
            specs=("AG init",))

    def test_populated_store_recomputes_no_fixpoints(self, tmp_path):
        # the acceptance scenario: a sweep re-run over a populated
        # store performs zero fixpoint recomputations — every check
        # row is a disk hit that answers in one iteration
        store_dir = str(tmp_path / "store")
        run_sweep(self._spec("first"), out_dir=str(tmp_path / "a"),
                  store_dir=store_dir)
        run_sweep(self._spec("second"), out_dir=str(tmp_path / "b"),
                  store_dir=store_dir)
        with open(tmp_path / "b" / "second.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        for row in rows:
            assert row["store_hit"] == "True"
            assert row["cache_warm"] == "True"
            assert row["iterations"] == "1"
            assert row["converged"] == "True"

    def test_store_survives_process_pool(self, tmp_path):
        # pool workers open their own per-process handle on the same
        # directory; the second (parallel) sweep must still hit
        store_dir = str(tmp_path / "store")
        run_sweep(self._spec("first"), out_dir=str(tmp_path / "a"),
                  store_dir=store_dir)
        result = run_sweep(self._spec("second"), jobs=2,
                           out_dir=str(tmp_path / "b"),
                           store_dir=store_dir)
        assert [r["store_hit"] for r in result.records] == [True, True]
        assert [r["iterations"] for r in result.records] == [1, 1]

    def test_rows_without_store_never_claim_disk_hits(self, tmp_path):
        result = run_sweep(self._spec("plain"),
                           out_dir=str(tmp_path / "a"))
        assert [r["store_hit"] for r in result.records] == \
            [False, False]

    def test_no_warm_start_bypasses_the_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_sweep(self._spec("first"), out_dir=str(tmp_path / "a"),
                  store_dir=store_dir)
        result = run_sweep(self._spec("second"), warm_start=False,
                           out_dir=str(tmp_path / "b"),
                           store_dir=store_dir)
        assert [r["store_hit"] for r in result.records] == \
            [False, False]

    def test_memory_warm_rows_are_not_disk_hits(self, tmp_path):
        # two configs sharing one in-memory fixpoint: cache_warm is
        # True but store_hit must stay False when no store is attached
        spec = SweepSpec.from_axes(
            "warm", ["grover"], [3],
            methods=("basic", "contraction"), specs=("AG inv",),
            method_params={"contraction": {"k1": 2, "k2": 2}})
        result = run_sweep(spec, out_dir=str(tmp_path))
        assert [r["cache_warm"] for r in result.records] == \
            [False, True]
        assert [r["store_hit"] for r in result.records] == \
            [False, False]


class TestBenchRowAdapter:
    def test_from_record(self):
        record = execute_run(RunSpec(model="ghz", size=3,
                                     config=CheckerConfig(method="basic"),
                                     label="GHZ3"))
        row = BenchRow.from_record(record)
        assert row.benchmark == "GHZ3"
        assert row.method == "basic"
        assert row.dimension == 1
        assert not row.timed_out

    def test_from_failed_record(self):
        row = BenchRow.from_record({"label": "X", "method": "basic",
                                    "failed": True})
        assert row.timed_out
        assert row.metric_cells() == ("-", "-", "-", "-")


class TestTablesThroughSweep:
    """table1/table2 are thin wrappers over the sweep runner."""

    def test_table1_spec_excludes_skipped_cells(self):
        spec = table1.table1_spec("small", families=["Grover"])
        # Grover small sizes are 6 and 8; no skip rule fires
        assert len(spec.runs) == 2 * len(table1.TABLE1_METHODS)
        assert all(run.model == "grover" for run in spec.runs)
        assert all(run.model_params == {"iterations": 2}
                   for run in spec.runs)

    def test_table1_rows_keep_layout(self):
        rows = table1.table1_rows(scale="small", families=["GHZ"])
        labels = {row.benchmark for row in rows}
        assert all(label.startswith("GHZ") for label in labels)
        assert len(rows) == len(labels) * len(table1.TABLE1_METHODS)

    def test_table1_resumable(self, tmp_path):
        rows = table1.table1_rows(scale="small", families=["QRW"],
                                  out_dir=str(tmp_path))
        again = table1.table1_rows(scale="small", families=["QRW"],
                                   out_dir=str(tmp_path))
        assert [r.seconds for r in rows] == [r.seconds for r in again]

    def test_table2_grid_shape(self):
        grid = table2.sweep_stats(num_qubits=4, kmax=2, iterations=1)
        assert len(grid) == 2 and len(grid[0]) == 2
        assert grid[0][0]["seconds"] > 0
        assert grid[1][1]["label"] == "k2x2"

    def test_table2_seconds_view(self):
        grid = table2.sweep(num_qubits=4, kmax=2, iterations=1)
        assert all(isinstance(cell, float) for row in grid for cell in row)
