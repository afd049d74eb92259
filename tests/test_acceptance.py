"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  The Monte Carlo fixtures run at full scale (500 realizations
for the power studies, 200 for interference) and are shared across tests.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import integrate, optimize

from irslink.beamforming import (
    align_phases,
    direct_and_cascade,
    mrt,
    null_interference,
    quantization_loss_bound,
    quantize_then_refine,
    received_gain,
)
from irslink.channel import ChannelRealization, ScenarioConfig, realize
from irslink.cli import CliInvocation, run
from irslink.experiments import (
    ExperimentConfig,
    run_interference_vs_n,
    run_power_vs_distance,
    run_power_vs_n,
)
from irslink.numerics import SeededRng
from irslink.reflection import ConstraintSet

IDEAL = ConstraintSet.ideal_continuous()
UNIT = ConstraintSet.unit_modulus()

MASTER_SEED = 20240811


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def power_vs_n():
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(),  # d = 50 m, M = 5, c0 = -30 dB, noise -80 dBm
        sweep=("n", (150.0, 300.0)),
        schemes=("continuous", "b1", "b2"),
        n_realizations=500,
        master_seed=MASTER_SEED,
    )
    t0 = time.perf_counter()
    result = run_power_vs_n(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def power_vs_distance():
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(),
        sweep=("d", (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0)),
        schemes=("joint", "bs_user_mrt", "bs_irs_mrt", "no_irs"),
        n_realizations=500,
        master_seed=MASTER_SEED,
    )
    return run_power_vs_distance(cfg)


@pytest.fixture(scope="module")
def interference():
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(m_antennas=1),
        sweep=("n", (20.0, 40.0, 60.0, 80.0, 100.0)),
        schemes=("joint_amp_phase", "phase_only", "no_irs"),
        n_realizations=200,
        master_seed=MASTER_SEED,
    )
    return run_interference_vs_n(cfg)


def test_criterion_1_power_scaling_law(power_vs_n):
    result, elapsed = power_vs_n
    delta = result.value(300.0, "continuous") - result.value(150.0, "continuous")
    ok = (-6.5 <= delta <= -5.5) and elapsed < 120.0
    check(
        "1 scaling-law",
        ok,
        f"P(300)-P(150) = {delta:+.3f} dB (target -6.0 +- 0.5), runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_quantization_loss_constants(power_vs_n):
    result, _ = power_vs_n
    loss1 = result.value(300.0, "loss_b1")
    loss2 = result.value(300.0, "loss_b2")
    in_windows = 3.5 <= loss1 <= 4.3 and 0.6 <= loss2 <= 1.2

    # the asymptotic constant models nearest-level rounding, so proximity
    # to it is checked on the rounding-only loss
    near_bound = all(
        abs(result.value(300.0, f"loss_b{b}_quant") - quantization_loss_bound(b)) <= 0.3
        for b in (1, 2)
    )

    quad_ok = True
    for b in (1, 2):
        half = np.pi / (1 << b)
        integral, _ = integrate.quad(np.cos, -half, half, epsabs=1e-14)
        quad = -20.0 * np.log10(integral / (2 * half))
        quad_ok &= abs(quad - quantization_loss_bound(b)) <= 1e-6
    check(
        "2 quantization-loss",
        in_windows and near_bound and quad_ok,
        f"loss(b1) = {loss1:.3f} dB in [3.5, 4.3], loss(b2) = {loss2:.3f} dB in [0.6, 1.2]; "
        f"rounding-only losses {result.value(300.0, 'loss_b1_quant'):.3f}/"
        f"{result.value(300.0, 'loss_b2_quant'):.3f} within 0.3 dB of bounds "
        f"{quantization_loss_bound(1):.3f}/{quantization_loss_bound(2):.3f} (quadrature-checked)",
    )


def test_criterion_3_absolute_power_anchor(power_vs_n):
    result, _ = power_vs_n
    assert ScenarioConfig().c0_db == -30.0  # anchors assume this reference loss
    p150 = result.value(150.0, "continuous")
    p300 = result.value(300.0, "continuous")
    delta = p300 - p150
    ok = abs(p150 - 2.5) <= 2.0 and abs(p300 - (-3.5)) <= 2.0 and abs(delta + 6.0) <= 0.5
    check(
        "3 absolute-anchor",
        ok,
        f"P(150) = {p150:+.3f} dBm (2.5 +- 2), P(300) = {p300:+.3f} dBm (-3.5 +- 2), "
        f"delta = {delta:+.3f} dB (-6 +- 0.5) at c0 = -30 dB",
    )


def test_criterion_4_signal_hotspot_ordering(power_vs_distance):
    result = power_vs_distance
    p = {d: result.value(d, "joint") for d in (25.0, 40.0, 50.0)}
    hotspot = p[50.0] < p[40.0] and p[25.0] < p[40.0]

    dominance = True
    for (d, scheme), samples in result.samples.items():
        if scheme == "joint":
            dominance &= bool(np.all(samples <= result.samples[(d, "bs_user_mrt")] + 1e-6))
        if scheme == "bs_user_mrt":
            dominance &= bool(np.all(samples <= result.samples[(d, "no_irs")] + 1e-6))

    worst_near_bs = all(
        result.value(d, "bs_irs_mrt")
        > max(result.value(d, "joint"), result.value(d, "bs_user_mrt"))
        for d in (20.0, 25.0, 30.0)
    )
    check(
        "4 signal-hotspot",
        hotspot and dominance and worst_near_bs,
        f"P(25)/P(40)/P(50) = {p[25.0]:.2f}/{p[40.0]:.2f}/{p[50.0]:.2f} dBm; "
        f"per-sample dominance on all {8 * 500} samples; "
        f"surface-pointing MRT is worst for d <= 30",
    )


def test_criterion_5_interference_suppression(interference):
    result = interference
    sweep = (20.0, 40.0, 60.0, 80.0, 100.0)
    ordering = all(
        result.value(n, "joint_amp_phase") <= result.value(n, "phase_only") <= result.value(n, "no_irs")
        for n in sweep
    )

    cancel_ok = True
    n_feasible = 0
    for n in sweep:
        margins = result.samples[(n, "margin")]
        joint = result.samples[(n, "joint_amp_phase")]
        direct = result.samples[(n, "no_irs")]
        feasible = margins >= 0.0
        n_feasible += int(np.sum(feasible))
        cancel_ok &= bool(np.all(joint[feasible] <= 1e-6 * direct[feasible]))

    plateau = result.value(100.0, "phase_only") > result.value(100.0, "joint_amp_phase")
    check(
        "5 interference-suppression",
        ordering and cancel_ok and plateau,
        f"joint <= phase-only <= no-surface at every N; residual < 1e-6 of direct "
        f"interference on all {n_feasible} feasible realizations; phase-only plateau "
        f"{result.value(100.0, 'phase_only'):.1f} dB above joint "
        f"{result.value(100.0, 'joint_amp_phase'):.1f} dB at N = 100",
    )


def test_criterion_6a_discrete_brute_force_oracle():
    never_worse = True
    gaps = []
    count = 0
    for n, bits in ((2, 1), (2, 2), (3, 1), (3, 2)):
        levels = np.exp(2j * np.pi * np.arange(1 << bits) / (1 << bits))
        for i in range(25):
            cfg = ScenarioConfig(m_antennas=1, n_elements=n)
            ch = realize(cfg, SeededRng(MASTER_SEED + 1, count))
            w = mrt(ch.h_bs_user)
            refined = quantize_then_refine(ch, w, align_phases(ch, w, UNIT), bits)
            g_ref = received_gain(ch, refined, w)
            t, a = direct_and_cascade(ch, w)
            g_exh = max(
                abs(t + np.sum(a * np.array(combo))) ** 2
                for combo in itertools.product(levels, repeat=n)
            )
            never_worse &= g_exh >= g_ref - 1e-12 * g_exh
            gaps.append((g_exh - g_ref) / g_exh)
            count += 1
    check(
        "6a discrete-vs-exhaustive",
        never_worse,
        f"exhaustive never worse on {count} realizations; mean relative gap {np.mean(gaps):.2e}",
    )


def _synthetic(t, f):
    f = np.asarray(f, complex)
    return ChannelRealization(
        g_bs_irs=f.reshape(-1, 1),
        h_irs_user=np.ones(f.size, complex),
        h_bs_user=np.array([np.conj(t)]),
    )


def test_criterion_6b_nulling_brute_force_oracle():
    # two elements: dense polar grid over both unit disks
    grid_ok = True
    rho = np.linspace(0.0, 1.0, 41)
    phi = np.arange(128) * 2 * np.pi / 128
    disk = (rho[:, None] * np.exp(1j * phi)[None, :]).ravel()
    for seed in range(6):
        g = np.random.default_rng(seed)
        t = complex(g.standard_normal() + 1j * g.standard_normal())
        f = g.standard_normal(2) + 1j * g.standard_normal(2)
        _, res = null_interference(_synthetic(t, f), IDEAL)
        best = np.inf
        for ai in t + f[0] * disk:
            best = min(best, np.min(np.abs(ai + f[1] * disk) ** 2))
        cell = np.sqrt((1 / 80) ** 2 + (np.pi / 128) ** 2)
        grid_ok &= res <= best + 1e-12
        grid_ok &= np.sqrt(best) - np.sqrt(res) <= np.sum(np.abs(f)) * cell + 1e-12

    # six elements: independent constrained convex solver (a dense grid over
    # six disks is computationally out of reach)
    solver_ok = True
    for seed in range(6):
        g = np.random.default_rng(100 + seed)
        t = complex(2.0 * g.standard_normal() + 2j * g.standard_normal())
        f = 0.4 * (g.standard_normal(6) + 1j * g.standard_normal(6))
        _, res = null_interference(_synthetic(t, f), IDEAL)

        def objective(x):
            return abs(t + np.sum(f * (x[:6] + 1j * x[6:]))) ** 2

        cons = [
            {"type": "ineq", "fun": (lambda x, k=k: 1.0 - x[k] ** 2 - x[6 + k] ** 2)}
            for k in range(6)
        ]
        best = min(
            objective(
                optimize.minimize(
                    objective, 0.5 * g.uniform(-1, 1, 12), method="SLSQP",
                    constraints=cons, options={"maxiter": 500, "ftol": 1e-14},
                ).x
            )
            for _ in range(3)
        )
        solver_ok &= abs(res - best) <= 1e-6 * abs(t) ** 2 and res <= best + 1e-8 * abs(t) ** 2
    check(
        "6b nulling-vs-brute-force",
        bool(grid_ok and solver_ok),
        "closed-form free-amplitude nulling matches a dense 2-element disk grid within "
        "grid resolution and an independent convex solver at 6 elements within 1e-6 of scale",
    )


def test_criterion_6c_coherent_sum_identity():
    worst = 0.0
    for i in range(200):
        ch = realize(ScenarioConfig(), SeededRng(MASTER_SEED + 2, i))
        w = mrt(ch.h_bs_user)
        t, a = direct_and_cascade(ch, w)
        target = abs(t) + float(np.sum(np.abs(a)))
        achieved = np.sqrt(received_gain(ch, align_phases(ch, w, UNIT), w))
        worst = max(worst, abs(achieved - target) / target)
    check(
        "6c coherent-sum-identity",
        worst <= 1e-9,
        f"|t| + sum|a_n| reached on all 200 realizations, worst relative error {worst:.2e}",
    )


def test_criterion_7_determinism(tmp_path):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("sweep = n:20,40\nn_realizations = 40\nmaster_seed = 7\n")

    outs = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 4)):
        inv = CliInvocation(
            subcommand="power-vs-n", config_path=str(cfg_file),
            out_path=str(tmp_path / name), quiet=True, workers=workers,
        )
        assert run(inv) == 0
        outs.append((tmp_path / name).read_bytes())

    int_cfg = tmp_path / "int.txt"
    int_cfg.write_text("m_antennas = 1\nsweep = n:10,20\nn_realizations = 40\n")
    int_outs = []
    for name, workers in (("ia.csv", 1), ("ib.csv", 3)):
        inv = CliInvocation(
            subcommand="interference-vs-n", config_path=str(int_cfg),
            out_path=str(tmp_path / name), quiet=True, workers=workers,
        )
        assert run(inv) == 0
        int_outs.append((tmp_path / name).read_bytes())

    ok = outs[0] == outs[1] == outs[2] and int_outs[0] == int_outs[1]
    check(
        "7 determinism",
        ok,
        "reruns and parallel runs produce byte-identical CSV for both studies",
    )


EXACT_REALIZATIONS = 20000
DB_PER_RELATIVE_ERROR = 10.0 / np.log(10.0)  # d(10 log10 x) / (dx / x)


def model_path_gain(a, b, exponent: float, c0_db: float) -> float:
    """Path gain between points a and b from the model: c0 at 1 m times d^-alpha."""
    d = np.hypot(*np.subtract(a, b))
    return 10.0 ** ((c0_db - 10.0 * exponent * np.log10(d)) / 10.0)


def direct_path_gain(scen: ScenarioConfig) -> float:
    """PL_d, the mean of |h_d,m|^2."""
    return model_path_gain(scen.user_position, scen.bs_position, scen.pl_exponent_bs_user,
                           scen.c0_db)


@pytest.mark.parametrize("seed", [MASTER_SEED, 1])
def test_no_irs_power_matches_its_exact_mean(seed):
    # ||h_d||^2 is Gamma(M, PL_d), so E[1/||h_d||^2] = 1/((M-1) PL_d) and the
    # mean of 1/||h_d||^2 has relative standard error sqrt(1/(M-2)/R)
    cfg = ExperimentConfig(schemes=("no_irs",), n_realizations=EXACT_REALIZATIONS,
                           master_seed=seed)
    result = run_power_vs_distance(cfg)
    m = cfg.scenario.m_antennas
    sigma = DB_PER_RELATIVE_ERROR * np.sqrt(1.0 / (m - 2) / EXACT_REALIZATIONS)
    level = cfg.snr_target_db + cfg.scenario.noise_power_dbm
    z = {}
    for d in cfg.sweep[1]:
        scen = ScenarioConfig(user_position=(d, cfg.scenario.user_position[1]))
        exact = level - 10.0 * np.log10((m - 1) * direct_path_gain(scen))
        z[d] = (result.value(d, "no_irs") - exact) / sigma
    worst = max(z.values(), key=abs)
    check(
        f"exact-mean no_irs power, seed {seed}",
        all(abs(x) <= 5.0 for x in z.values()),
        f"all {len(z)} distances within 5 sigma of 10^((snr+noise)/10) / ((M-1) PL_d), "
        f"sigma = {sigma:.4f} dB at M = {m}, R = {EXACT_REALIZATIONS}; worst {worst:+.2f} sigma",
    )


@pytest.mark.parametrize("seed", [MASTER_SEED, 1])
def test_no_irs_interference_matches_its_exact_mean(seed):
    # |t|^2 is Exp(PL_d): its mean has relative standard error 1/sqrt(R)
    cfg = ExperimentConfig(scenario=ScenarioConfig(m_antennas=1),
                           sweep=("n", (20.0, 100.0)), schemes=("no_irs",),
                           n_realizations=EXACT_REALIZATIONS, master_seed=seed)
    result = run_interference_vs_n(cfg)
    sigma = DB_PER_RELATIVE_ERROR / np.sqrt(EXACT_REALIZATIONS)
    exact = (cfg.interferer_power_dbm + 10.0 * np.log10(direct_path_gain(cfg.scenario))
             - cfg.scenario.noise_power_dbm)
    z = {n: (result.value(n, "no_irs") - exact) / sigma for n in cfg.sweep[1]}
    worst = max(z.values(), key=abs)
    check(
        f"exact-mean no_irs interference, seed {seed}",
        all(abs(x) <= 5.0 for x in z.values()),
        f"N = 20 and 100 within 5 sigma of P_int PL_d / noise = {exact:.3f} dB, "
        f"sigma = {sigma:.4f} dB at R = {EXACT_REALIZATIONS}; worst {worst:+.2f} sigma",
    )


@pytest.mark.parametrize("seed", [MASTER_SEED, 1])
def test_joint_gain_matches_its_exact_mean(seed):
    # the joint optimum ||h_d||^2 + r^2 + 2 r |p|, with r = kappa sum_n |x_n|
    # (x_n unit CSCG, kappa = amp_r ||G_n|| = sqrt(PL_r M PL_g)) independent
    # of h_d, and p = b^H h_d ~ CN(0, PL_d): its mean is M PL_d +
    # kappa^2 (N + N(N-1) pi/4) + kappa N sqrt(PL_d) pi/2.  The standard
    # error is taken from the samples, each row's gain read back from its
    # required power.
    cfg = ExperimentConfig(schemes=("joint",), n_realizations=EXACT_REALIZATIONS,
                           master_seed=seed)
    result = run_power_vs_distance(cfg)
    scen = cfg.scenario
    m, n = scen.m_antennas, scen.n_elements
    level = cfg.snr_target_db + scen.noise_power_dbm
    pl_g = model_path_gain(scen.bs_position, scen.irs_position, scen.pl_exponent_bs_irs,
                           scen.c0_db)
    z, sigma_db = {}, []
    for d in cfg.sweep[1]:
        user = (d, scen.user_position[1])
        pl_d = model_path_gain(user, scen.bs_position, scen.pl_exponent_bs_user, scen.c0_db)
        pl_r = model_path_gain(user, scen.irs_position, scen.pl_exponent_irs_user, scen.c0_db)
        kappa = np.sqrt(pl_r * m * pl_g)
        exact = (m * pl_d + kappa**2 * (n + n * (n - 1) * np.pi / 4)
                 + kappa * n * np.sqrt(pl_d) * np.pi / 2)
        gains = 10.0 ** ((level - result.samples[(d, "joint")]) / 10.0)
        sigma = np.std(gains, ddof=1) / np.sqrt(len(gains))
        z[d] = (np.mean(gains) - exact) / sigma
        sigma_db.append(DB_PER_RELATIVE_ERROR * sigma / exact)
    worst = max(z.values(), key=abs)
    check(
        f"exact-mean joint gain, seed {seed}",
        all(abs(x) <= 5.0 for x in z.values()),
        f"all {len(z)} distances within 5 sigma of M PL_d + kappa^2 (N + N(N-1) pi/4) "
        f"+ kappa N sqrt(PL_d) pi/2, sigma = {min(sigma_db):.4f}-{max(sigma_db):.4f} dB at "
        f"M = {m}, N = {n}, R = {EXACT_REALIZATIONS}; worst {worst:+.2f} sigma",
    )
