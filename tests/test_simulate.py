from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridplan import mission
from hybridplan.cli import MODES
from hybridplan.geometry import Pose2D
from hybridplan.grid import FREE, OCCUPIED, OccupancyGrid, voronoi_field
from hybridplan.mission import MissionConfig
from hybridplan.planner import DriveSegment, PathBuilder, PlannerConfig
from hybridplan.simulate import (ScenarioSpec, kappa_dot_rms,
                                 proximity_stats, run_scenario)
from hybridplan.vehicle import VehicleSpec

from conftest import bordered_grid, bundled, pose_close
from oracles import kappa_dot_rms_direct, proximity_stats_reference

VEH = VehicleSpec()


def drive_path(kappas, ds=0.5, direction=1, last_short=False):
    """One drive segment with the given interval curvatures at ds spacing.

    Built directly from arrays (the geometry is a straight line; only the
    curvature labels and arc lengths matter for the metrics).  With
    last_short the final interval is shortened so resampling at ds yields
    exactly one curvature point per interval (no end duplicate).
    """
    from hybridplan.planner import PlannedPath

    n = len(kappas)
    steps = np.full(n, ds)
    if last_short:
        steps[-1] = ds / 2.0
    s = np.concatenate([[0.0], np.cumsum(steps)])
    xs = s.copy()
    ys = np.zeros_like(s)
    yaws = np.zeros_like(s)
    seg = DriveSegment(xs, ys, yaws, np.asarray(kappas, dtype=float), s, direction)
    return PlannedPath(segments=[seg])


# --------------------------------------------------------------- kappa stats

def test_straight_path_zero():
    path = drive_path([0.0] * 20)
    assert kappa_dot_rms(path, 0.5) == (0.0, 0.0)


def test_constant_arc_zero():
    path = drive_path([0.2] * 20)
    rms, mx = kappa_dot_rms(path, 0.5)
    assert rms == 0.0 and mx == 0.0


def test_hand_case():
    # a 1.0 m segment with interval curvatures [0, 0.2] resamples at ds=0.5
    # to the point sequence [0, 0.2, 0.2]
    path = drive_path([0.0, 0.2])
    rms, mx = kappa_dot_rms(path, 0.5)
    assert rms == pytest.approx(0.28284271247461906, abs=1e-12)
    assert mx == pytest.approx(0.4)


def test_path_too_short_raises():
    builder = PathBuilder(Pose2D(0, 0, 0))
    builder.add_drive_sample(0.3, 0.0, 0.0, 0.1, 1)   # shorter than ds
    with pytest.raises(ValueError, match="path too short"):
        kappa_dot_rms(builder.finish(), 0.5)


def test_matches_direct_summation(rng):
    for _ in range(30):
        n = int(rng.integers(3, 60))
        kappas = rng.uniform(-0.25, 0.25, n)
        path = drive_path(list(kappas), last_short=True)
        rms, mx = kappa_dot_rms(path, 0.5)
        expect_rms, expect_mx = kappa_dot_rms_direct([kappas], 0.5)
        assert rms == pytest.approx(expect_rms, abs=1e-12)
        assert mx == pytest.approx(expect_mx, abs=1e-12)


def test_rotations_excluded_from_pooling():
    builder = PathBuilder(Pose2D(0, 0, 0))
    for i in range(1, 11):
        builder.add_drive_sample(i * 0.5, 0.0, 0.0, 0.1, 1)
    builder.add_rotation(math.pi / 2)
    for i in range(1, 11):
        builder.add_drive_sample(5.0, i * 0.5, math.pi / 2, 0.1, 1)
    rms, mx = kappa_dot_rms(builder.finish(), 0.5)
    # constant curvature in both drive segments: the rotation adds nothing
    assert rms == 0.0 and mx == 0.0


# ---------------------------------------------------------------- proximity

def test_proximity_far_from_everything():
    g = OccupancyGrid.filled(400, 400, 0.25, FREE)
    g.set_cells((0, 0), OCCUPIED)
    field = voronoi_field(g)
    path = drive_path([0.0] * 20)
    # shift the path to the far corner: d_O > d_max everywhere
    builder = PathBuilder(Pose2D(80.0, 80.0, 0.0))
    for i in range(1, 20):
        builder.add_drive_sample(80.0 + i * 0.5, 80.0, 0.0, 0.0, 1)
    p_max, p_avg = proximity_stats(builder.finish(), field, VEH)
    assert p_max == 0.0 and p_avg == 0.0


def test_proximity_corner_inside_obstacle():
    g = bordered_grid(20, 20, res=0.25)
    field = voronoi_field(g)
    builder = PathBuilder(Pose2D(1.8, 2.0, 0.0))   # rear corner inside the wall
    builder.add_drive_sample(2.3, 2.0, 0.0, 0.0, 1)
    p_max, _ = proximity_stats(builder.finish(), field, VEH)
    assert p_max == pytest.approx(1.0)


def test_proximity_matches_field_sample_at_known_clearance():
    res = 0.25
    g = OccupancyGrid.filled(200, 120, res, FREE)
    g.set_box(0.0, 0.0, 50.0, 0.5, OCCUPIED)          # one wall along y=0
    field = voronoi_field(g)
    y0 = 6.0
    builder = PathBuilder(Pose2D(10.0, y0, 0.0))
    for i in range(1, 21):
        builder.add_drive_sample(10.0 + i * 0.5, y0, 0.0, 0.0, 1)
    p_max, p_avg = proximity_stats(builder.finish(), field, VEH)
    # every sample's nearest corner sits at the same wall clearance
    expect = field.at(15.0, y0 - VEH.width / 2.0)
    assert p_max == pytest.approx(expect, abs=1e-9)
    assert p_avg == pytest.approx(expect, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_runs=st.integers(0, 5))
def test_proximity_stats_matches_scalar_reference(seed, n_runs):
    """The one array lookup of every corner gives the per-corner loop's
    (p_max, p_avg) bit for bit: drive runs and rotations, unnormalized
    yaws, and corners off the grid."""
    rng = np.random.default_rng(seed)
    g = OccupancyGrid(0.25, np.where(rng.random((48, 64)) < 0.05, OCCUPIED, FREE))
    field = voronoi_field(g)
    builder = PathBuilder(Pose2D(*rng.uniform(-2.0, 18.0, 2), rng.uniform(-4.0, 4.0)))
    for _ in range(n_runs):
        if rng.random() < 0.3:
            builder.add_rotation(rng.uniform(-math.pi, math.pi))
            continue
        direction = int(rng.choice([-1, 1]))
        for _ in range(rng.integers(1, 8)):
            x, y = rng.uniform(-2.0, 18.0, 2)
            builder.add_drive_sample(x, y, rng.uniform(-10.0, 10.0), 0.0, direction)
    path = builder.finish()
    assert proximity_stats(path, field, VEH) == proximity_stats_reference(path, field, VEH)


# ------------------------------------------------------------- run_scenario

def smoke_spec(**kw):
    g = bordered_grid(30, 16)
    defaults = dict(truth_map=g, start=Pose2D(4, 8, 0), goal=Pose2D(25, 8, 0),
                    known_env=True, max_sim_steps=400)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_known_simple_run():
    run = run_scenario(smoke_spec(), MissionConfig(), PlannerConfig(), MODES["standard"], VEH)
    assert run.report.reached
    assert run.report.n_planner_calls == 1
    assert run.report.length == pytest.approx(21.0, abs=1.0)
    assert run.events[0].cause == "initial"


def test_zero_budget_returns_unreached():
    report = run_scenario(smoke_spec(max_sim_steps=0), MissionConfig(),
                          PlannerConfig(), MODES["standard"], VEH).report
    assert not report.reached
    assert report.length == 0.0


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="max_sim_steps"):
        smoke_spec(max_sim_steps=-3)


def test_stop_cause_step_limit():
    report = run_scenario(smoke_spec(max_sim_steps=5), MissionConfig(),
                          PlannerConfig(), MODES["standard"], VEH).report
    assert not report.reached
    assert report.stop_cause == "step limit: 5 steps"


def test_stop_cause_planner_failure():
    g = bordered_grid(30, 16)
    g.set_box(6.0, 7.5, 6.4, 8.5, OCCUPIED)   # a post under the vehicle's body
    spec = smoke_spec(truth_map=g, start=Pose2D(4, 8, 0))
    report = run_scenario(spec, MissionConfig(), PlannerConfig(), MODES["standard"], VEH).report
    assert not report.reached
    assert report.stop_cause == "planner failure: start in collision"


def test_stop_cause_reached():
    report = run_scenario(smoke_spec(), MissionConfig(),
                          PlannerConfig(), MODES["standard"], VEH).report
    assert report.reached and report.stop_cause == "reached"


def test_hidden_wall_triggers_replan():
    g = bordered_grid(40, 20)
    g.set_box(20.0, 0.5, 21.0, 13.0, OCCUPIED)
    spec = ScenarioSpec(truth_map=g, start=Pose2D(5, 6, 0), goal=Pose2D(33, 6, 0),
                        known_env=False, sensor_range=12.0, n_rays=720,
                        max_sim_steps=600)
    run = run_scenario(spec, MissionConfig(), PlannerConfig(), MODES["guided"], VEH)
    assert run.report.reached
    causes = {e.cause for e in run.events}
    assert causes & {"collision", "divergence"}


def test_determinism_across_runs():
    spec = ScenarioSpec(truth_map=bordered_grid(40, 20), start=Pose2D(5, 6, 0),
                        goal=Pose2D(33, 12, 1.0), known_env=False,
                        sensor_range=15.0, n_rays=720, max_sim_steps=600)
    run1 = run_scenario(spec, MissionConfig(), PlannerConfig(), MODES["guided"], VEH)
    run2 = run_scenario(spec, MissionConfig(), PlannerConfig(), MODES["guided"], VEH)
    assert run1.report.length == run2.report.length
    assert run1.report.cumulative_nodes == run2.report.cumulative_nodes
    assert [(e.step, e.cause, e.nodes, e.s_plan) for e in run1.events] == \
           [(e.step, e.cause, e.nodes, e.s_plan) for e in run2.events]
    assert pose_close(run1.driven.end_pose(), run2.driven.end_pose(),
                      pos_tol=1e-12, yaw_tol=1e-12)
    assert run1.texts(False) == run2.texts(False)


def test_reached_implies_goal_tolerance():
    spec = smoke_spec()
    run = run_scenario(spec, MissionConfig(), PlannerConfig(), MODES["standard"], VEH)
    assert run.report.reached
    end = run.driven.end_pose()
    assert end.distance_to(spec.goal) <= PlannerConfig().xy_resolution + 1e-9
    assert abs((end.yaw - spec.goal.yaw + math.pi) % (2 * math.pi) - math.pi) \
        <= PlannerConfig().yaw_resolution + 1e-9


def test_metrics_report_consistency():
    run = run_scenario(smoke_spec(), MissionConfig(), PlannerConfig(), MODES["standard"], VEH)
    report = run.report
    assert report.p_avg <= report.p_max + 1e-12
    if report.n_planner_calls:
        assert report.t_avg == pytest.approx(report.t_cum / report.n_planner_calls)
    assert report.cumulative_nodes == sum(e.nodes for e in run.events)


@pytest.mark.parametrize("scenario,mode", [("reveal_divergence", "guided"),
                                           ("plate_corridor_84", "extended")])
def test_planner_accounting_is_the_replan_events(scenario, mode):
    """Calls, wall-clock figures and nodes of the report are the events' own."""
    run = run_scenario(bundled(scenario), MissionConfig(), PlannerConfig(), MODES[mode], VEH)
    report, events = run.report, run.events
    assert report.n_planner_calls == len(events)
    assert report.t_cum == sum(e.seconds for e in events)
    assert report.t_max == max(e.seconds for e in events)
    assert report.cumulative_nodes == sum(e.nodes for e in events)


def _counted_calls(monkeypatch, scenario, mode, config):
    """The run, and how many times its ticks called the planner."""
    calls, plan = [], mission.plan
    monkeypatch.setattr(mission, "plan", lambda *args, **kw: calls.append(1) or plan(*args, **kw))
    run = run_scenario(bundled(scenario), MissionConfig(), config, MODES[mode], VEH)
    return run, len(calls)


def test_a_failed_planner_call_is_counted(monkeypatch):
    """A call that fails inside `plan` is a replan event like any other: the
    report counts it, its nodes and its seconds."""
    run, calls = _counted_calls(monkeypatch, "plate_corridor_67", "standard", PlannerConfig())
    report, events = run.report, run.events
    assert report.stop_cause == "planner failure: no path"
    assert report.n_planner_calls == len(events) == calls == 1
    assert report.cumulative_nodes == events[0].nodes > 0
    assert report.t_cum == events[0].seconds > 0.0
    assert run.texts(False)["events.log"] == f"0,initial,0.000000,{events[0].nodes},0.000000\n"


def test_a_stop_without_a_planner_call_adds_no_event(monkeypatch):
    """With no free waypose the tick stops before it calls the planner, so
    the events are the earlier calls alone."""
    run, calls = _counted_calls(monkeypatch, "unknown_large", "waypoint",
                                PlannerConfig(inflation_radius=0.3))
    assert run.report.stop_cause == "planner failure: no free waypose on the route"
    assert run.report.n_planner_calls == len(run.events) == calls > 0
