"""Tests for the monitoring layer: SLOs, burn-rate alerts, simulators.

The headline invariants: enabling a monitor changes *no* simulated
number (bit-parity), every chaos scenario pages after its fault, and
the whole pipeline is deterministic per seed.
"""

import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import alert_timelines
from repro.fleet import (
    ChaosEvent,
    ChaosScenario,
    FleetSimulator,
    build_fleet,
    build_scenario,
)
from repro.model.config import protein_bert_tiny
from repro.monitor import (
    LATENCY,
    PAGE,
    SLO,
    TICKET,
    BurnRateRule,
    Mark,
    Monitor,
    ThresholdRule,
    budget_gauge,
    fleet_monitor,
    fleet_rules,
    fleet_slos,
    format_alert_report,
    render_dashboard,
    serving_monitor,
    serving_rules,
    serving_slos,
    sparkline,
)
from repro.proteins.workloads import screening_campaign
from repro.reliability import (
    DegradationPolicy,
    FaultModel,
    FaultRates,
    RetryPolicy,
    derive_task_seed,
)
from repro.system.serving import CampaignSimulator
from repro.telemetry import TimeSeries
from tests.oracles import monitor as oracle

TINY = protein_bert_tiny()

CHAOS_SCENARIOS = ("rack_power_loss", "link_flap_storm", "slow_node",
                   "rolling_restart")


class TestDeclarations:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", objective="made-up")
        with pytest.raises(ValueError):
            SLO(name="x", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", latency_multiple=0.5)
        assert SLO(name="x", target=0.99).budget_fraction \
            == pytest.approx(0.01)

    def test_burn_rule_validation(self):
        with pytest.raises(ValueError, match="short <= long"):
            BurnRateRule(name="r", slo="x", long_window_fraction=0.01,
                         short_window_fraction=0.05)
        with pytest.raises(ValueError):
            BurnRateRule(name="r", slo="x", burn_threshold=0.0)
        with pytest.raises(ValueError):
            BurnRateRule(name="r", slo="x", severity="email")

    def test_threshold_rule_ops(self):
        rule = ThresholdRule(name="r", series="s", op=">=", threshold=2.0)
        assert rule.violated(2.0) and rule.violated(3.0)
        assert not rule.violated(1.0)
        with pytest.raises(ValueError):
            ThresholdRule(name="r", series="s", op="!=")

    def test_monitor_rejects_unknown_slo_reference(self):
        with pytest.raises(ValueError, match="unknown SLO"):
            Monitor(rules=(BurnRateRule(name="r", slo="ghost"),))

    def test_monitor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate SLO"):
            Monitor(slos=(SLO(name="a"), SLO(name="a")))
        with pytest.raises(ValueError, match="duplicate rule"):
            Monitor(rules=(ThresholdRule(name="r", series="s"),
                           ThresholdRule(name="r", series="t")))


class TestMonitorLifecycle:
    def test_must_begin_before_use(self):
        monitor = Monitor()
        with pytest.raises(ValueError, match="begin"):
            monitor.observe([0.0], {"s": [1.0]}, {})
        with pytest.raises(ValueError, match="begin"):
            monitor.report()

    def test_begin_twice_raises(self):
        monitor = Monitor()
        monitor.begin(1.0)
        with pytest.raises(ValueError, match="already armed"):
            monitor.begin(1.0)

    def test_sample_interval_from_horizon(self):
        monitor = Monitor(samples=128)
        monitor.begin(12.8)
        assert monitor.sample_interval == pytest.approx(0.1)

    def test_unknown_slo_event_is_a_no_op(self):
        monitor = Monitor(slos=(SLO(name="availability"),))
        monitor.begin(1.0)
        report = monitor.observe([0.1], {}, {"ghost": ([1.0], [0.0])})
        (budget,) = report.budgets
        assert (budget.slo, budget.good, budget.bad) == (
            "availability", 0.0, 0.0)

    def test_observe_once_per_run(self):
        monitor = Monitor()
        monitor.begin(1.0)
        monitor.observe([0.5], {}, {})
        with pytest.raises(ValueError, match="already observed"):
            monitor.observe([1.0], {}, {})

    @pytest.mark.parametrize("series, events, message", [
        ({"s": [1.0]}, {}, "'s' has 1 values for 2 times"),
        ({}, {"availability": ([1.0, 1.0], [0.0])},
         "'slo/availability/bad' has 1 values for 2 times"),
        ({}, {"availability": ([1.0, -1.0], [0.0, 0.0])},
         "non-negative"),
    ])
    def test_bad_columns_raise(self, series, events, message):
        monitor = Monitor(slos=(SLO(name="availability"),))
        monitor.begin(1.0)
        with pytest.raises(ValueError, match=message):
            monitor.observe([0.5, 1.0], series, events)

    def test_out_of_order_ticks_raise(self):
        monitor = Monitor(slos=(SLO(name="availability"),))
        monitor.begin(1.0)
        with pytest.raises(ValueError, match="earlier"):
            monitor.observe([0.5, 0.25], {}, {})


class TestBurnRateAlerting:
    def _monitor(self):
        monitor = Monitor(
            slos=(SLO(name="availability", target=0.9),),
            rules=(BurnRateRule(name="fast", slo="availability",
                                severity=PAGE, burn_threshold=2.0,
                                long_window_fraction=1.0,
                                short_window_fraction=0.5),),
            samples=4)
        monitor.begin(1.0)
        return monitor

    # Half the events at 0.5 are bad: error rate 0.5 over a 0.1 budget
    # is burn 5.0, over threshold in both windows -> page.  At 1.0 a
    # flood of good events dilutes both windows below threshold.
    EVENTS = {"availability": ([1.0, 10.0], [1.0, 0.0])}

    def test_fires_then_resolves(self):
        report = self._monitor().observe([0.5, 1.0], {}, self.EVENTS)
        (alert,) = report.alerts
        assert alert.severity == PAGE
        assert alert.fired_at == 0.5
        assert alert.value == pytest.approx(5.0)
        assert alert.resolved_at == pytest.approx(1.0)

    def test_still_active_at_the_end(self):
        report = self._monitor().observe(
            [0.5], {}, {"availability": ([1.0], [1.0])})
        (alert,) = report.alerts
        assert alert.resolved_at is None

    def test_budget_accounting(self):
        report = self._monitor().observe([0.5, 1.0], {}, self.EVENTS,
                                         end_seconds=1.0)
        (budget,) = report.budgets
        # 1 bad of 12 total against a 10% budget: 1 / 1.2 consumed.
        assert budget.consumed_fraction == pytest.approx(1.0 / 1.2)
        assert budget.remaining_fraction == pytest.approx(1.0 - 1.0 / 1.2)
        assert report.worst_burn_rate == pytest.approx(5.0)

    def test_no_events_no_alerts(self):
        report = self._monitor().observe([0.5], {}, {})
        assert report.alerts == ()
        assert report.worst_burn_rate == 0.0


class TestThresholdAlerting:
    def test_edge_triggered_refire_appends_new_alert(self):
        monitor = Monitor(rules=(ThresholdRule(name="shed",
                                               series="fleet/shed",
                                               op=">", threshold=0.0,
                                               severity=TICKET),),
                          samples=8)
        monitor.begin(1.0)
        report = monitor.observe([0.1, 0.2, 0.3, 0.4],
                                 {"fleet/shed": [0.0, 1.0, 0.0, 3.0]}, {})
        assert len(report.alerts) == 2  # two activations, two alerts
        first, second = report.alerts
        assert first.fired_at == pytest.approx(0.2)
        assert first.resolved_at == pytest.approx(0.3)
        assert second.fired_at == pytest.approx(0.4)
        assert second.resolved_at is None
        assert second.peak_value == pytest.approx(3.0)


def tiny_simulator(scenario_name=None, seed=2022):
    topology = build_fleet(racks=2, hosts_per_rack=2,
                           instances_per_host=2)
    simulator = FleetSimulator(
        topology, model_config=TINY,
        fault_model=FaultModel(FaultRates(),
                               seed=derive_task_seed(seed, "monitor")),
        policy=DegradationPolicy(min_capacity_fraction=0.25),
        seq_len=64, reference_batch=4)
    scenario = (build_scenario(scenario_name, topology)
                if scenario_name else None)
    return simulator, scenario


class TestFleetIntegration:
    @pytest.mark.parametrize("name", (None,) + CHAOS_SCENARIOS)
    def test_monitoring_is_bit_identical(self, name):
        simulator, scenario = tiny_simulator(name)
        bare = simulator.run(batch=64, scenario=scenario)
        monitored = simulator.run(batch=64, scenario=scenario,
                                  monitor=fleet_monitor())
        assert monitored.slo is not None
        assert dataclasses.replace(monitored, slo=None) == bare

    @pytest.mark.parametrize("name", CHAOS_SCENARIOS)
    def test_every_chaos_scenario_pages_after_its_fault(self, name):
        simulator, scenario = tiny_simulator(name)
        monitor = fleet_monitor()
        report = simulator.run(batch=64, scenario=scenario,
                               monitor=monitor)
        outcome = report.slo
        assert outcome.pages >= 1, outcome
        assert outcome.fault_seconds is not None
        assert outcome.first_page_seconds is not None
        assert outcome.page_delay_seconds >= 0.0
        assert outcome.worst_burn_rate > 1.0
        assert monitor.report().first_alert(PAGE) is not None

    def test_clean_run_stays_quiet(self):
        simulator, _ = tiny_simulator(None)
        report = simulator.run(batch=64, monitor=fleet_monitor())
        assert report.slo.alerts == 0
        assert report.slo.budget_remaining == pytest.approx(1.0)
        assert "alerts=0" in report.summary()

    def test_deterministic_per_seed(self):
        first = tiny_simulator("rack_power_loss")
        second = tiny_simulator("rack_power_loss")
        report_a = first[0].run(batch=64, scenario=first[1],
                                monitor=fleet_monitor())
        report_b = second[0].run(batch=64, scenario=second[1],
                                 monitor=fleet_monitor())
        assert report_a == report_b

    @pytest.mark.parametrize("name", (None,) + CHAOS_SCENARIOS)
    def test_series_timestamps_strictly_increase(self, name):
        # The last tick lands at or past the makespan and reads the
        # closed run; no second tick repeats its timestamp.
        simulator, scenario = tiny_simulator(name)
        monitor = fleet_monitor()
        simulator.run(batch=64, scenario=scenario, monitor=monitor)
        for series in monitor.store:
            times = [t for t, _ in series.samples()]
            assert all(a < b for a, b in zip(times, times[1:])), series.name

    def test_reused_monitor_is_rejected(self):
        simulator, scenario = tiny_simulator("rack_power_loss")
        monitor = fleet_monitor()
        simulator.run(batch=64, scenario=scenario, monitor=monitor)
        with pytest.raises(ValueError, match="already armed"):
            simulator.run(batch=64, scenario=scenario, monitor=monitor)

    def test_tick_on_a_failure_sees_the_failure(self):
        # Two samples over the horizon: the first tick lands exactly on
        # the scripted failure at half the nominal makespan, and reads
        # the fleet after it.
        topology = build_fleet(racks=1, hosts_per_rack=1,
                               instances_per_host=4)
        simulator = FleetSimulator(topology, model_config=TINY, seq_len=64,
                                   reference_batch=4)
        victim = topology.instances[0].instance_id
        scenario = ChaosScenario(
            name="half", description="one instance dies at half time",
            events=(ChaosEvent(at_fraction=0.5, action="fail",
                               target=f"instance:{victim}"),))
        monitor = fleet_monitor(samples=2)
        simulator.run(batch=64, scenario=scenario, monitor=monitor)
        (first_tick, alive), *_ = monitor.store.get("fleet/alive").samples()
        assert first_tick == monitor.sample_interval
        assert first_tick == 0.5 * monitor.horizon_seconds
        assert alive == 3.0
        marks = monitor.report().marks
        assert [(m.label, m.target) for m in marks] == [
            ("fault", victim), ("detection", victim)]
        assert marks[0].at_seconds == first_tick

    def test_summary_mentions_slo_outcome(self):
        simulator, scenario = tiny_simulator("rack_power_loss")
        report = simulator.run(batch=64, scenario=scenario,
                               monitor=fleet_monitor())
        text = report.summary()
        assert "pages=" in text and "budget_left=" in text


class TestServingIntegration:
    def _simulator(self, rate=0.15, seed=11):
        fault_model = FaultModel(
            FaultRates(batch_failure=rate, straggler=rate,
                       link_transient=rate / 10.0),
            seed=derive_task_seed(seed, rate))
        config = protein_bert_tiny(max_position=2048)
        return CampaignSimulator(
            model_config=config, max_batch=8, fault_model=fault_model,
            retry_policy=RetryPolicy(backoff_base_seconds=0.002,
                                     backoff_cap_seconds=0.05))

    def test_monitoring_is_bit_identical(self):
        workload = screening_campaign(library_size=32, seed=11)
        bare = self._simulator().run_on_prose(workload)
        monitored = self._simulator().run_on_prose(
            workload, monitor=serving_monitor())
        assert monitored.slo is not None
        assert dataclasses.replace(monitored, slo=None) == bare

    def test_armed_monitor_is_rejected_before_any_batch(self):
        workload = screening_campaign(library_size=32, seed=11)
        monitor = serving_monitor()
        monitor.begin(1.0)
        simulator = self._simulator()
        with pytest.raises(ValueError, match="already armed"):
            simulator.run_on_prose(workload, monitor=monitor)
        # No fault was drawn: the next run matches a fresh simulator's.
        assert (simulator.run_on_prose(workload)
                == self._simulator().run_on_prose(workload))

    def test_faulty_campaign_burns_budget(self):
        workload = screening_campaign(library_size=32, seed=11)
        monitor = serving_monitor()
        report = self._simulator().run_on_prose(workload, monitor=monitor)
        assert report.slo.worst_burn_rate > 0.0
        budgets = {b.slo: b for b in monitor.report().budgets}
        assert set(budgets) == {"latency", "availability"}


class TestAlertTimelinesExperiment:
    def test_timeline_table_covers_every_scenario(self):
        result = alert_timelines.run(batch=64)
        text = alert_timelines.format_result(result)
        assert "baseline" in text
        for name in CHAOS_SCENARIOS:
            assert name in text
        assert "fault ms" in text and "page lag" in text
        by_name = dict(zip(result.scenarios, result.outcomes))
        assert by_name["baseline"].pages == 0
        for name in CHAOS_SCENARIOS:
            assert by_name[name].pages >= 1


class TestDashboard:
    def test_sparkline_shapes(self):
        assert sparkline(TimeSeries("s"), width=8, end=1.0) == " " * 8
        flat = sparkline(TimeSeries("s", [0.0, 1.0], [5.0, 5.0]), width=8,
                         end=1.0)
        assert len(flat) == 8 and len(set(flat)) == 1  # constant: flat
        strip = sparkline(TimeSeries("s", [0.0, 1.0, 2.0],
                                     [5.0, 5.0, 50.0]), width=8, end=2.0)
        assert strip[-1] == "█"  # peak renders as the tallest glyph

    def test_budget_gauge(self):
        assert budget_gauge(1.0, width=4) == "[####]"
        assert budget_gauge(0.0, width=4) == "[....]"
        assert budget_gauge(0.5, width=4) == "[##..]"
        assert budget_gauge(-1.0, width=4) == "[....]"  # clamped

    def test_dashboard_and_alert_report_render(self):
        simulator, scenario = tiny_simulator("rack_power_loss")
        monitor = fleet_monitor()
        simulator.run(batch=64, scenario=scenario, monitor=monitor)
        text = render_dashboard(monitor, width=24)
        assert "monitor 'fleet'" in text
        assert "fleet/capacity_fraction" in text
        assert "error budgets" in text
        assert "availability" in text
        report_text = format_alert_report(monitor.report())
        assert "mark" in report_text and "fault" in report_text
        assert "after fault" in report_text

    def test_empty_alert_report(self):
        monitor = Monitor(samples=2)
        monitor.begin(1.0)
        assert "(no alerts fired)" in format_alert_report(
            monitor.observe([1.0], {}, {}, end_seconds=1.0))


def _oracle_run(monitor, ticks, series, events, marks=(), end_seconds=None):
    """Feed ``monitor``'s run to the per-sample oracle one tick at a
    time, in the order the simulators used to: each series value, each
    SLO event, then one evaluation."""
    replay = oracle.Monitor(slos=monitor.slos, rules=monitor.rules,
                            samples=monitor.samples, name=monitor.name)
    replay.begin(monitor.horizon_seconds)
    for tick, t in enumerate(ticks):
        for name, column in series.items():
            if column[tick] is not None:
                replay.record(t, name, column[tick])
        for name, (good, bad) in events.items():
            replay.slo_event(t, name, good=good[tick], bad=bad[tick])
        replay.evaluate(t)
    for mark in marks:
        replay.mark(mark.at_seconds, mark.label, mark.target)
    return replay, replay.finalize(end_seconds)


def _state(store, report):
    """Everything a monitored run concludes, as exact text."""
    return repr((
        [(series.name, list(series.samples())) for series in store],
        [(a.rule, a.severity, a.slo, a.fired_at, a.resolved_at, a.value,
          a.peak_value) for a in report.alerts],
        report.budgets, report.worst_burn_rate, report.ticks,
        report.end_seconds, report.marks, report.horizon_seconds,
        report.sample_interval))


class _TwinMonitor(Monitor):
    """A monitor that also replays every run it observes into the
    oracle, so a simulator's own columns are checked against it."""

    def observe(self, ticks, series, events, marks=(), end_seconds=None):
        report = super().observe(ticks, series, events, marks, end_seconds)
        replay, expected = _oracle_run(self, ticks, series, events, marks,
                                       end_seconds)
        assert _state(self.store, report) == _state(replay.store, expected)
        self.checked = True
        return report


_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 8.0]),
                     st.floats(0.0, 10.0))
_VALUES = st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.0, 1.0, 2.5]),
                    st.floats(-5.0, 5.0))
_SERIES = ("fleet/shed", "fleet/backlog", "serving/dropped",
           "serving/batch_latency", "x")


@st.composite
def _random_runs(draw):
    """A monitor, armed, and a run to hand it: equal tick times, sparse
    and all-None series, windows before the first tick or holding no
    events, thresholds on missing and SLO series, flapping rules,
    signed zero weights, and ticks so late that a window's start
    rounds to its end (it must not read a later tick at that time)."""
    preset = draw(st.sampled_from(["fleet", "serving", "random"]))
    if preset == "fleet":
        slos, rules = fleet_slos(), fleet_rules()
    elif preset == "serving":
        slos, rules = serving_slos(), serving_rules()
    else:
        slos = (SLO(name="availability",
                    target=draw(st.sampled_from([0.5, 0.9, 0.999]))),
                SLO(name="latency", objective=LATENCY, target=0.9))
        rules = []
        for index in range(draw(st.integers(0, 4))):
            short = draw(st.sampled_from([0.01, 0.1, 0.25, 0.5]))
            rules.append(BurnRateRule(
                name=f"burn{index}",
                slo=draw(st.sampled_from(["availability", "latency"])),
                severity=draw(st.sampled_from([PAGE, TICKET])),
                burn_threshold=draw(st.sampled_from([0.5, 1.0, 2.0, 14.4])),
                short_window_fraction=short,
                long_window_fraction=short * draw(
                    st.sampled_from([1.0, 2.0, 4.0]))))
        for index in range(draw(st.integers(0, 3))):
            rules.append(ThresholdRule(
                name=f"threshold{index}",
                series=draw(st.sampled_from(
                    _SERIES + ("ghost", "slo/availability/bad"))),
                op=draw(st.sampled_from([">", ">=", "<", "<="])),
                threshold=draw(st.sampled_from([0.0, 1.0]))))
    monitor = Monitor(slos=slos, rules=rules,
                      samples=draw(st.integers(2, 16)), name=preset)
    monitor.begin(draw(st.sampled_from([0.5, 1.0, 4.0])
                       | st.floats(0.01, 10.0)))
    steps = draw(st.lists(st.sampled_from([0.0, 0.05, 0.125, 0.25])
                          | st.floats(0.0, 1.0), max_size=40))
    ticks = list(accumulate(steps, initial=draw(
        st.sampled_from([0.0, 1e17]) | st.floats(0.0, 1.0))))
    count = len(ticks)
    series = {}
    for name in draw(st.lists(st.sampled_from(_SERIES), unique=True)):
        series[name] = draw(st.lists(_VALUES, min_size=count,
                                     max_size=count))
    events = {}
    for name in draw(st.lists(st.sampled_from(
            ["availability", "latency", "ghost"]), unique=True)):
        events[name] = tuple(draw(st.lists(_WEIGHTS, min_size=count,
                                           max_size=count))
                             for _ in range(2))
    marks = [Mark(at, "fault", "i0") for at in draw(
        st.lists(st.floats(0.0, 5.0), max_size=2))]
    end = draw(st.none() | st.floats(0.0, 50.0))
    return monitor, ticks, series, events, marks, end


class TestOracleParity:
    """The column monitor against the per-sample engine it replaced
    (``tests/oracles/monitor.py``), bit for bit."""

    @given(_random_runs())
    @settings(max_examples=300, deadline=None)
    def test_random_runs_match_the_oracle(self, run):
        monitor, ticks, series, events, marks, end = run
        report = monitor.observe(ticks, series, events, marks, end)
        replay, expected = _oracle_run(monitor, ticks, series, events,
                                       marks, end)
        assert _state(monitor.store, report) == \
            _state(replay.store, expected)

    def test_flapping_threshold_and_burn_rules(self):
        monitor = Monitor(
            slos=(SLO(name="availability", target=0.5),),
            rules=(BurnRateRule(name="burn", slo="availability",
                                burn_threshold=1.0,
                                long_window_fraction=0.25,
                                short_window_fraction=0.25),
                   ThresholdRule(name="flap", series="s")))
        monitor.begin(1.0)
        ticks = [0.25 * (index + 1) for index in range(8)]
        flips = [float(index % 2) for index in range(8)]
        run = (ticks, {"s": flips},
               {"availability": ([1.0 - f for f in flips], flips)})
        report = monitor.observe(*run)
        assert [a.rule for a in report.alerts] == ["burn", "flap"] * 4
        replay, expected = _oracle_run(monitor, *run)
        assert _state(monitor.store, report) == \
            _state(replay.store, expected)

    @pytest.mark.parametrize("name", (None,) + CHAOS_SCENARIOS)
    def test_fleet_runs_match_the_oracle(self, name):
        simulator, scenario = tiny_simulator(name)
        monitor = _TwinMonitor(slos=fleet_slos(), rules=fleet_rules(),
                               name="fleet")
        simulator.run(batch=64, scenario=scenario, monitor=monitor)
        assert monitor.checked

    def test_serving_run_matches_the_oracle(self):
        monitor = _TwinMonitor(slos=serving_slos(), rules=serving_rules(),
                               name="serving")
        report = TestServingIntegration()._simulator().run_on_prose(
            screening_campaign(library_size=32, seed=11), monitor=monitor)
        assert monitor.checked and report.slo.alerts > 0
