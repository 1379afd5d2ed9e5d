"""Exit-code contract: every subcommand is nonzero on failure.

Scripts and CI compose the CLI; a run with failed points that exits 0
is a silent lie.  These tests pin the contract for ``repro run`` (the
report driver), ``trace``, ``chaos``, ``serve`` and ``submit``.
"""

import json

import pytest

import repro.cli as cli
from repro.analysis.report import ReportWriter
from repro.experiments.spec import ExperimentSpec


class TestRunExitCodes:
    def test_failed_point_turns_exit_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def broken_experiment(engine=None):
            spec = ExperimentSpec.sequential(
                name="broken",
                algorithms=["definitely-not-an-algorithm"],
                layouts=["column-major"],
                ns=[16],
                Ms=[96],
            )
            engine.run(spec)
            # keep the throwaway report out of the repo's reports/
            return ReportWriter("broken", directory=str(tmp_path))

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"broken": broken_experiment}
        )
        assert cli.main(["broken", "--quiet", "--no-cache"]) == 1

    def test_clean_run_exits_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reduction", "--quiet"]) == 0


class TestTraceExitCodes:
    def test_failure_is_structured_exit_1(self, capsys):
        # an unknown layout raises inside the run; trace must turn
        # that into a one-line FAIL and exit 1, not a traceback
        rc = cli.main(
            ["trace", "chol", "--n", "32", "--M", "96",
             "--layout", "not-a-layout"]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_success_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli.main(
            ["trace", "chol", "--n", "32", "--M", "96", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()


class TestChaosExitCodes:
    def test_clean_recovery_exits_zero(self, capsys):
        rc = cli.main(
            ["chaos", "pxpotrf", "--n", "16", "--P", "4",
             "--drop", "0.2", "--seed", "3"]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "argv, exc_name",
        [
            # every attempt of the ABFT ladder meets a double fault
            (
                ["chaos", "chol", "--algorithm", "lapack", "--n", "48",
                 "--silent", "0.3", "--silent-double", "0.5",
                 "--abft-attempts", "8", "--fault-seed", "1"],
                "SilentCorruptionError",
            ),
            # the stop-and-wait transport gives up on a message
            (
                ["chaos", "pxpotrf", "--n", "16", "--P", "4",
                 "--drop", "0.95"],
                "FaultExhausted",
            ),
        ],
    )
    def test_failed_run_is_one_line_exit_1(self, capsys, argv, exc_name):
        rc = cli.main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"[chaos] FAIL: {exc_name}: ")


class TestSubmitExitCodes:
    def test_done_exits_zero(self, capsys):
        rc = cli.main(
            ["submit", "chol", "--algorithm", "lapack", "--n", "24",
             "--M", "96"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"

    def test_degraded_still_exits_zero(self, capsys):
        # a degraded answer is an answer: exit 0, degraded flag set
        rc = cli.main(
            ["submit", "chol", "--algorithm", "lapack", "--n", "64",
             "--M", "192", "--max-words", "10"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "degraded"
        assert payload["degraded"] is True

    def test_failed_exits_one(self, capsys):
        # an uncovered (algorithm, layout) pair has no closed form, so
        # a budget degrade has no ladder rung to fall to: failed
        rc = cli.main(
            ["submit", "chol", "--algorithm", "naive-left", "--n", "32",
             "--M", "96", "--layout", "row-major", "--max-words", "10"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "failed"


class TestServeExitCodes:
    def test_demo_workload_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "responses.json"
        rc = cli.main(
            ["serve", "--demo", "6", "--workers", "0", "--out", str(out)]
        )
        assert rc == 0
        responses = json.loads(out.read_text())
        assert len(responses) == 6
        assert all(r["status"] == "done" for r in responses)

    def test_workload_with_failures_exits_one(self, tmp_path):
        # near-certain drops, one attempt: the parallel job fails
        workload = [
            {
                "point": {
                    "kind": "parallel",
                    "algorithm": "pxpotrf",
                    "layout": "block-cyclic",
                    "n": 16,
                    "M": None,
                    "P": 4,
                    "block": 8,
                    "seed": 0,
                    "verify": False,
                    "faults": {
                        "seed": 0,
                        "drop": 0.99,
                        "max_attempts": 1,
                    },
                }
            }
        ]
        path = tmp_path / "w.json"
        path.write_text(json.dumps(workload))
        rc = cli.main(
            ["serve", "--workload", str(path), "--workers", "0",
             "--retries", "0", "--quiet"]
        )
        assert rc == 1


class TestSubmitTransportRetry:
    """Satellite of the durability PR: ``repro submit --cluster`` must
    ride out transient pipe faults with bounded, seeded backoff, and
    exit with the stable transport code (3) once retries are spent."""

    class _FlakyClient:
        def __init__(self, failures, exc=BrokenPipeError("pipe gone")):
            self.failures = failures
            self.exc = exc
            self.calls = 0

        def submit(self, job):
            self.calls += 1
            if self.calls <= self.failures:
                raise self.exc
            return job  # stand-in terminal response

    def test_transient_failures_are_retried_then_succeed(self):
        from repro.serving.cli import _submit_with_retry

        client = self._FlakyClient(failures=2)
        slept = []
        result = _submit_with_retry(
            client, "job", attempts=3, seed=5, sleep=slept.append
        )
        assert result == "job"
        assert client.calls == 3
        assert len(slept) == 2
        # backoff doubles, jitter stays in [0.5, 1.5) of the envelope
        for attempt, delay in enumerate(slept):
            envelope = 0.05 * 2.0 ** attempt
            assert 0.5 * envelope <= delay < 1.5 * envelope

    def test_retry_schedule_is_seeded_and_reproducible(self):
        from repro.serving.cli import _submit_with_retry

        def schedule(seed):
            client = self._FlakyClient(failures=3)
            slept = []
            _submit_with_retry(
                client, "job", attempts=4, seed=seed, sleep=slept.append
            )
            return slept

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_exhausted_retries_reraise_the_last_error(self):
        from repro.serving.cli import _submit_with_retry

        client = self._FlakyClient(failures=99)
        with pytest.raises(BrokenPipeError):
            _submit_with_retry(client, "job", attempts=2, sleep=lambda _: None)
        assert client.calls == 2

    def test_non_transient_errors_are_not_retried(self):
        from repro.serving.cli import _submit_with_retry

        class Broken:
            calls = 0

            def submit(self, job):
                self.calls += 1
                raise ValueError("not a transport problem")

        client = Broken()
        with pytest.raises(ValueError):
            _submit_with_retry(client, "job", attempts=5, sleep=lambda _: None)
        assert client.calls == 1

    def test_transport_exhaustion_exits_three(self, monkeypatch, capsys):
        from repro.serving import cli as serving_cli

        class DeadCluster:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, job):
                raise BrokenPipeError("front door gone")

        monkeypatch.setattr(
            serving_cli.ServingClient,
            "cluster",
            classmethod(lambda cls, **kw: DeadCluster()),
        )
        # the real seeded backoff runs: ~0.05s for one retry
        rc = cli.main(
            ["submit", "chol", "--n", "24", "--cluster",
             "--transport-retries", "2"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "transport failure after 2 attempt(s)" in err

    def test_cluster_submit_happy_path_exits_zero(self, capsys):
        rc = cli.main(
            ["submit", "chol", "--n", "24", "--cluster", "--shards", "2"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
