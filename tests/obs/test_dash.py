"""The self-contained dashboard: one HTML file, no external fetches."""

import re

import pytest

from repro.obs.dash import (
    build_dashboard,
    build_live_dashboard,
    walkthrough_timelines,
)
from repro.obs.ledger import RunRecord
from repro.obs.regress import collect_run
from repro.schema import SCHEMA_VERSION


def _run(run_id: str, **overrides) -> RunRecord:
    base = dict(
        run_id=run_id,
        timestamp=1700000000.0,
        command="sweep",
        argv=("sweep", "--n", "100"),
        options_hash="feedfacecafe",
        git_sha="deadbeef" * 5,
        machine={"platform": "test"},
        wall_s=0.5,
        outcome="ok",
        metrics={
            "schema_version": SCHEMA_VERSION,
            "deterministic": {"counters": {"sim.stalls": 4}, "histograms": {}},
            "all": {"counters": {"sim.stalls": 4}, "histograms": {}},
        },
        timelines={"sync": "W | S\n. W S"},
    )
    base.update(overrides)
    return RunRecord(**base)


@pytest.fixture(scope="module")
def bench_runs():
    return [collect_run("fig", n=20), collect_run("fig", n=20)]


@pytest.fixture(scope="module")
def html(bench_runs):
    runs = [
        _run("a" * 12),
        _run(
            "b" * 12,
            command="simulate",
            outcome="deadlock",
            error="DeadlockError: 8 processor(s) blocked",
        ),
    ]
    return build_dashboard(
        runs, bench_runs, walkthrough=walkthrough_timelines(n=4)
    )


class TestSelfContained:
    def test_single_complete_document(self, html):
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")

    def test_no_external_fetches(self, html):
        # Inline CSS/SVG/JS only: the file must render from a mail
        # attachment or a CI artifact with the network unplugged.
        assert not re.search(r'\bsrc\s*=\s*["\']https?://', html)
        assert not re.search(r'\bhref\s*=\s*["\']https?://', html)
        assert "<script src" not in html and "<link " not in html
        assert "@import" not in html

    def test_dark_mode_via_media_query(self, html):
        assert "prefers-color-scheme: dark" in html


class TestRunTable:
    def test_renders_both_runs(self, html):
        assert html.count('data-run="1"') == 2
        assert "a" * 12 in html and "b" * 12 in html

    def test_filter_controls_present(self, html):
        for control in ("f-command", "f-outcome", "f-text"):
            assert f'id="{control}"' in html
        assert 'data-command="simulate"' in html
        assert 'data-outcome="deadlock"' in html

    def test_run_details_embed_timeline_and_error(self, html):
        assert "W | S" in html
        assert "DeadlockError: 8 processor(s) blocked" in html


class TestBenchTrends:
    def test_trend_chart_is_inline_svg(self, html):
        assert "<svg" in html
        # the two series wear the fixed palette (t_list blue, t_new orange)
        assert "#2a78d6" in html and "#eb6834" in html

    def test_regression_banner_present(self, html):
        assert "Regression gate" in html

    def test_legend_names_both_series(self, html):
        assert "list scheduler" in html and "sync-aware scheduler" in html


class TestWalkthrough:
    def test_sync_timeline_embedded(self, html):
        assert "sync (sync-aware scheduler)" in html
        assert "sync (list scheduler)" in html

    def test_walkthrough_timelines_keys(self):
        timelines = walkthrough_timelines(n=4)
        assert set(timelines) == {
            "sync (list scheduler)",
            "sync (sync-aware scheduler)",
            "execution",
            "execution_svg",
        }
        assert timelines["execution_svg"].lstrip().startswith("<svg")

    def test_walkthrough_optional(self, bench_runs):
        html = build_dashboard([_run("a" * 12)], bench_runs, walkthrough=None)
        assert "Fig. 4 walkthrough" not in html


class TestEmptyInputs:
    def test_empty_ledger_still_renders(self):
        html = build_dashboard([], [])
        assert html.startswith("<!DOCTYPE html>")
        assert "no runs recorded" in html


def _snapshot():
    """A /v1/metrics payload shaped like ReproService.metrics_payload()."""
    from repro.service.telemetry import ServiceTelemetry

    telemetry = ServiceTelemetry()
    telemetry.request_started()
    telemetry.request_finished("evaluate", 200, 0.02, workload=True)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "result",
        "op": "metrics",
        "uptime_s": 12.5,
        "requests": 1,
        **telemetry.snapshot(),
    }


class TestLiveDashboard:
    @pytest.fixture(scope="class")
    def live_html(self):
        return build_live_dashboard(
            _snapshot(), source="http://127.0.0.1:8757", refresh_s=1.5
        )

    def test_self_contained_document(self, live_html):
        assert live_html.startswith("<!DOCTYPE html>")
        assert live_html.rstrip().endswith("</html>")
        assert not re.search(r'\bsrc\s*=\s*["\']https?://', live_html)
        assert "<script src" not in live_html and "<link " not in live_html

    def test_stat_tiles_render_the_snapshot(self, live_html):
        for tile in (
            "t-uptime", "t-requests", "t-errors", "t-inflight",
            "t-queue", "t-p50", "t-p95", "t-p99",
        ):
            assert f'id="{tile}"' in live_html, tile
        assert 'id="t-requests">1<' in live_html

    def test_polling_config_embedded(self, live_html):
        assert 'const SOURCE = "http://127.0.0.1:8757";' in live_html
        assert "const REFRESH_MS = 1500;" in live_html
        assert "/v1/metrics" in live_html

    def test_histograms_and_flight_table_present(self, live_html):
        assert 'id="latency-hist"' in live_html
        assert 'id="coalesce-hist"' in live_html
        assert 'id="flight-table"' in live_html

    def test_refresh_floor_is_250ms(self):
        html = build_live_dashboard(_snapshot(), refresh_s=0.01)
        assert "const REFRESH_MS = 250;" in html

    def test_empty_snapshot_still_renders(self):
        html = build_live_dashboard({})
        assert html.startswith("<!DOCTYPE html>")
        assert 'id="t-requests">0<' in html


class TestProfileSection:
    def _profile(self, timestamp=1.0, **overrides):
        from repro.obs.prof import Profile

        base = dict(
            timestamp=timestamp,
            hz=97.0,
            duration_s=2.0,
            samples=42,
            folded={"repro.sched:run;repro.sim:walk": 30, "repro.sched:run": 12},
            stages={"schedule.list": 30, "(unattributed)": 12},
        )
        base.update(overrides)
        return Profile(**base)

    def test_static_dashboard_embeds_latest_flame_graph(self, bench_runs):
        old = self._profile(timestamp=1.0, label="old")
        new = self._profile(timestamp=2.0, label="new")
        html = build_dashboard(
            [], bench_runs, walkthrough=None, profiles=[old, new]
        )
        assert "<svg" in html and new.profile_id in html
        assert "schedule.list" in html  # the stage table

    def test_no_profiles_no_section(self, bench_runs):
        html = build_dashboard([], bench_runs, walkthrough=None)
        assert "CPU profile" not in html

    def test_live_dashboard_flame_panel(self):
        armed = build_live_dashboard(_snapshot(), profile_svg="<svg >x</svg>")
        assert 'id="flame"' in armed and "<svg >x</svg>" in armed
        assert "/v1/profile" in armed  # the poller repaints the panel
        off = build_live_dashboard(_snapshot())
        assert 'id="flame"' in off and "--profile-hz" in off
