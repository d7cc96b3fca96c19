import numpy as np
import pytest

from conftest import opf_noise
from dpconic import solver
from dpconic.conic import ConeKind, NotOptimal, Status
from dpconic.dp import calibrate_laplace, estimate_sensitivity, sample_noise
from dpconic.experiments import _input_rows, cvar_q_sweep
from dpconic.ldr import ConflictingConstraints
from dpconic.solver import kkt_report, solve
from dpconic.apps.metrics import evaluate_rule_metrics
from dpconic.apps.opf import (
    PowerNetwork,
    build_opf,
    bundled_network,
    demand_adjacency,
    opf_cost_range,
    opf_sensitivity_bound,
    privatize_opf,
    released_cost_feasible,
)


def two_node_net(c=(1.0, 2.0), d=(1.0, 0.0), xmax=(10.0, 10.0), fmax=5.0):
    # single line between the two nodes; PTDF with slack at node 0
    F = np.array([[0.0, -1.0]])
    return PowerNetwork("pair", c, d, (0.0, 0.0), xmax, (fmax,), F,
                        lines=((0, 1),))


def brute_force_dispatch(net, grid=201):
    """Enumerate dispatch pairs on a grid; cheapest feasible one."""
    best, best_cost = None, np.inf
    total = net.d.sum()
    for x0 in np.linspace(0, net.xmax[0], grid):
        x1 = total - x0
        if x1 < -1e-9 or x1 > net.xmax[1] + 1e-9:
            continue
        flow = net.F @ (np.array([x0, x1]) - net.d)
        if np.any(np.abs(flow) > net.fmax + 1e-9):
            continue
        cost = net.c @ np.array([x0, x1])
        if cost < best_cost:
            best, best_cost = np.array([x0, x1]), cost
    return best, best_cost


class TestBuildOpf:
    def test_two_node_cheapest_dispatch(self):
        net = two_node_net()
        sol = solve(build_opf(net))
        assert sol.status == Status.OPTIMAL
        oracle_x, oracle_cost = brute_force_dispatch(net)
        assert abs(sol.objective - oracle_cost) < 1e-4
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-5)

    def test_zero_demand(self):
        net = two_node_net(d=(0.0, 0.0))
        sol = solve(build_opf(net))
        assert sol.status == Status.OPTIMAL
        assert abs(sol.objective) < 1e-6

    def test_flow_limited_net_infeasible(self):
        # capacity suffices in total but the single line cannot carry it
        net = two_node_net(d=(0.0, 8.0), xmax=(10.0, 0.0), fmax=1.0)
        sol = solve(build_opf(net))
        assert sol.status == Status.PRIMAL_INFEASIBLE

    def test_excess_demand_rejected_at_construction(self):
        # the data model refuses networks that cannot serve their demand
        with pytest.raises(ValueError):
            PowerNetwork("bad", (1.0,), (5.0,), (0.0,), (1.0,), (1.0,),
                         np.zeros((1, 1)))

    def test_bundled_round_trip(self):
        net = bundled_network("triangle3")
        back = PowerNetwork.from_json(net.to_json())
        assert np.array_equal(net.F, back.F)
        assert np.array_equal(net.d, back.d)

    def test_bundled_ptdf_consistency(self):
        # recompute the PTDF from the line list and reactances (test oracle)
        import json
        from importlib import resources

        for name in ("triangle3", "ring5", "cvar6"):
            doc = json.loads(
                resources.files("dpconic.data").joinpath(f"{name}.json").read_text())
            lines, x = doc["lines"], doc["reactance"]
            n = doc["nodes"]
            E = len(lines)
            Ainc = np.zeros((E, n))
            for e, (f, t) in enumerate(lines):
                Ainc[e, f], Ainc[e, t] = 1.0, -1.0
            Bd = np.diag(1.0 / np.asarray(x))
            F = np.zeros((E, n))
            F[:, 1:] = Bd @ Ainc[:, 1:] @ np.linalg.inv((Ainc.T @ Bd @ Ainc)[1:, 1:])
            assert np.allclose(F, np.array(doc["F"]), atol=1e-9)


class TestSensitivityBound:
    def test_formula(self):
        assert opf_sensitivity_bound(np.array([1.0, 2.0, 3.0]), 2.0) == 6.0
        assert opf_sensitivity_bound(np.array([1.0]), 0.0) == 0.0

    def test_estimate_never_exceeds_bound(self):
        net = bundled_network("triangle3")
        alpha = 2.0
        adj = demand_adjacency(net, alpha)
        rep = estimate_sensitivity(adj, p=1, samples=100, gamma=0.1, beta=0.1,
                                   seed=5)
        assert rep.delta_p <= opf_sensitivity_bound(net.c, alpha) + 1e-9


class TestPrivatizeOpf:
    def test_balance_preserved(self):
        net = bundled_network("triangle3")
        pv = privatize_opf(net, opf_noise(net, 3.0), eta=0.01)
        draws = sample_noise(pv.noise, 31, 10**4, stream=5)
        xs = pv.rule.evaluate_many(draws)
        assert np.abs(xs.sum(axis=1) - net.d.sum()).max() < 1e-8

    def test_loss_monotone_in_alpha(self):
        net = bundled_network("triangle3")
        costs = [privatize_opf(net, opf_noise(net, a), 0.01).nominal
                 for a in (1.0, 3.0, 10.0)]
        assert costs[0] <= costs[1] <= costs[2]

    def test_one_solve_per_privatization(self, monkeypatch):
        calls = []

        def counting(programs, settings=None):
            calls.append(len(programs))
            return real(programs, settings)
        real = solver.solve_batch
        monkeypatch.setattr(solver, "solve_batch", counting)
        net = bundled_network("triangle3")
        privatize_opf(net, opf_noise(net, 3.0), 0.01)
        assert calls == [1]

    def test_constant_costs_conflict(self):
        net = two_node_net(c=(2.0, 2.0))
        with pytest.raises((ConflictingConstraints, NotOptimal)):
            privatize_opf(net, opf_noise(net, 0.5), eta=0.05)

    def test_infeasible_privatization_raises(self):
        # tight capacities cannot absorb a large noise box
        net = two_node_net(c=(1.0, 5.0), d=(8.0, 0.0), xmax=(10.0, 10.0))
        with pytest.raises(NotOptimal):
            privatize_opf(net, opf_noise(net, 20.0), eta=0.01)

    @pytest.mark.parametrize("name", ["triangle3", "ring5", "cvar6"])
    def test_privatized_opf_is_an_lp(self, name):
        # the rule's columns and nothing else, Zero and NonNeg blocks only,
        # and every Optimal certified by kkt_report to 10 tol
        net = bundled_network(name)
        tol = solver.SolverSettings().tol
        for alpha in (1.0, 3.0, 10.0):
            pv = privatize_opf(net, opf_noise(net, alpha), 0.01)
            program = pv.program
            assert {blk.kind for blk in program.cones.blocks} <= {
                ConeKind.ZERO, ConeKind.NONNEG}
            assert program.n == pv.privatized.space.ncols
            assert max(kkt_report(program, pv.solution).values()) <= 10 * tol

    def test_cvar6_gap_within_tol(self):
        # an Optimal whose gap read 2.9e-8 against tol 1e-8 while the program
        # carried a recourse ridge
        net = bundled_network("cvar6")
        pv = privatize_opf(net, opf_noise(net, 1.0), 0.01)
        assert kkt_report(pv.program, pv.solution)["gap"] <= solver.SolverSettings().tol

    def test_chance_level_holds(self):
        net = bundled_network("ring5")
        prog = build_opf(net)
        base = solve(prog)
        pv = privatize_opf(net, opf_noise(net, 3.0), eta=0.01)
        _, feasible = evaluate_rule_metrics(pv.rule, prog, base,
                                            sample_noise(pv.noise, 42, 2000, stream=9))
        assert 1.0 - feasible.mean() <= 0.01 + 3 * np.sqrt(0.01 * 0.99 / 2000)


class TestScalarStrategies:
    def test_cost_range_brackets(self):
        net = bundled_network("triangle3")
        lo, hi = opf_cost_range(net)
        assert lo < hi
        assert released_cost_feasible(lo, lo, hi)
        assert not released_cost_feasible(lo - 1.0, lo, hi)

    def test_infeasible_base_raises_not_optimal(self):
        # every unit at its maximum: the minimum generation exceeds demand
        net = two_node_net()
        net = PowerNetwork("over", net.c, net.d, net.xmax, net.xmax, net.fmax, net.F)
        status = solve(build_opf(net)).status
        assert status != Status.OPTIMAL
        for call in (lambda: opf_cost_range(net),
                     lambda: cvar_q_sweep(net, (0,), 1.0, 1.0, (0.1,))):
            with pytest.raises(NotOptimal) as info:
                call()
            assert info.value.status == status

    def test_input_perturbation_half_infeasible(self):
        net = bundled_network("triangle3")
        lo, hi = opf_cost_range(net)
        noise = calibrate_laplace(3.0, 1.0, k=net.n_nodes)
        costs = _input_rows(demand_adjacency(net, 3.0), noise, 3, 400, 1)[:, 0]
        rate = 1.0 - released_cost_feasible(costs, lo, hi).mean()
        assert 0.35 <= rate <= 0.65
