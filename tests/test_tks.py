import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tksnn.autodiff as ad
from tksnn.autodiff import GradTape, SurrogateSpec, Tensor, backward
from tksnn.errors import ConfigError, ContractError, DataError, ParameterError
from tksnn.lif import LifConfig
from tksnn.data import prepare_sequence, synth_temporal
from tksnn.network import Linear, Model, TemporalOutput, build_model, unroll
from tksnn.tks import (
    AlphaSchedule,
    TeacherConfig,
    TeacherSignal,
    alpha_at,
    baseline_loss,
    ce_loss,
    final_loss,
    objective,
    select_teachers,
    teacher_signal,
    tks_loss,
)

LOG_K = float(np.log(np.float32(1e-12)))  # documented clamp floor


def softmax(x, tau=1.0):
    z = np.asarray(x, dtype=np.float64) / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def probs(*rows_per_t):
    """Build a [T,B,C] probability array from per-timestep row lists."""
    return np.asarray(rows_per_t, dtype=np.float32)


def temporal(v, q=None):
    """The TemporalOutput unroll builds around per-timestep distributions v [T,B,C]."""
    v = ad.as_tensor(v)
    return TemporalOutput(q=q, v=v, o=ad.mean(v, axis=0))


# ---------------------------------------------------------------------------
# aggregation


def aggregate_via_unroll(q):
    """(v, o) of unroll on a stateless identity-readout model, so that logits = q."""
    c = q.shape[-1]
    readout = Linear(c, c, np.random.default_rng(0))
    readout.w.data = np.eye(c, dtype=np.float32)
    model = Model([], readout, SurrogateSpec(), preset="custom", input_shape=(c,),
                  class_count=c, lif_cfg=LifConfig(), seed=0)
    out = unroll(model, q)
    assert np.array_equal(out.q.data, q)
    return out.v, out.o


def test_aggregate_identical_timesteps():
    q = np.tile(np.array([[1.0, 2.0, 0.0]], dtype=np.float32), (4, 1, 1))
    v, o = aggregate_via_unroll(q)
    assert np.allclose(o.data, softmax([1.0, 2.0, 0.0]), atol=1e-6)


def test_aggregate_symmetry():
    q = np.array([[[30.0, -30.0]], [[-30.0, 30.0]]], dtype=np.float32)
    _, o = aggregate_via_unroll(q)
    assert np.allclose(o.data, [[0.5, 0.5]], atol=1e-6)


def test_aggregate_matches_scalar_loop_oracle():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(3, 2, 4)).astype(np.float32)
    v, o = aggregate_via_unroll(q)
    for b in range(2):
        for c in range(4):
            acc = 0.0
            for t in range(3):
                acc += float(v.data[t, b, c])
            assert o.data[b, c] == pytest.approx(acc / 3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# teacher selection / construction


def test_select_argmax_single_teacher():
    v = probs([[0.1, 0.9]], [[0.9, 0.1]], [[0.1, 0.9]])
    sel = select_teachers(v, np.array([0]), 1)
    assert sel.tolist() == [[1]]


def test_select_tie_breaks_toward_small_t():
    v = np.tile(probs([[0.25, 0.75]]), (4, 1, 1))
    sel = select_teachers(v, np.array([1]), 2)
    assert sel.tolist() == [[0, 1]]


def test_select_k_equals_t_takes_everything():
    rng = np.random.default_rng(0)
    v = softmax(rng.normal(size=(5, 3, 4))).astype(np.float32)
    sel = select_teachers(v, np.array([0, 1, 2]), 5)
    assert np.array_equal(np.sort(sel, axis=1), np.tile(np.arange(5), (3, 1)))


def test_select_rejects_bad_label():
    v = probs([[0.5, 0.5]])
    with pytest.raises(DataError):
        select_teachers(v, np.array([2]), 1)


def test_select_invariant_to_per_timestep_logit_shift():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(6, 4, 3)).astype(np.float32)
    labels = rng.integers(0, 3, size=4)
    v = softmax(q).astype(np.float32)
    shifted = q + rng.normal(size=(6, 1, 1)).astype(np.float32)  # constant per t
    v2 = softmax(shifted).astype(np.float32)
    assert np.array_equal(select_teachers(v, labels, 2), select_teachers(v2, labels, 2))


def test_teacher_single_selection_is_softmax_of_that_row():
    q = np.array([[[2.0, 0.0, 1.0]], [[0.0, 5.0, 0.0]]], dtype=np.float32)
    sig = teacher_signal(q, np.array([[1]]), 1.0)
    assert np.allclose(sig.z, softmax([0.0, 5.0, 0.0]), atol=1e-6)


def test_teacher_symmetric_logits_uniform_for_any_tau():
    q = np.zeros((3, 1, 2), dtype=np.float32)
    for tau in (0.5, 1.0, 5.0):
        sig = teacher_signal(q, np.array([[0, 2]]), tau)
        assert np.allclose(sig.z, [[0.5, 0.5]])


def test_teacher_mean_then_softmax_hand_case():
    q = np.array([[[2.0, 0.0]], [[0.0, 2.0]]], dtype=np.float32)
    sig = teacher_signal(q, np.array([[0, 1]]), 1.0)
    assert np.allclose(sig.z, [[0.5, 0.5]], atol=1e-6)  # mean logits [1,1]


def test_teacher_exhaustive_selection_equals_softmax_of_mean_logits():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(7, 5, 3)).astype(np.float32)
    sel = np.tile(np.arange(7), (5, 1))
    sig = teacher_signal(q, sel, 1.0)
    assert np.allclose(sig.z, softmax(q.mean(axis=0)), atol=1e-6)


def test_teacher_rejects_empty_selection():
    with pytest.raises(ContractError):
        teacher_signal(np.zeros((2, 1, 2), dtype=np.float32), np.zeros((1, 0), dtype=int), 1.0)


def test_teacher_is_gradient_detached():
    # building the teacher from live outputs must record nothing on the tape
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(3, 2, 4)).astype(np.float32), requires_grad=True)
    with GradTape() as tape:
        v = ad.softmax_temperature(q, 1.0)
        before = len(tape)
        sel = select_teachers(v.data, np.array([0, 1]), 2)
        sig = teacher_signal(q.data, sel, 3.0)
        assert len(tape) == before
        loss = tks_loss(v, sig)
    backward(loss, tape)
    g1 = q.grad.copy()
    # a perturbed teacher changes the loss target, but gradient flows only
    # through the student path; recompute with frozen z to confirm equality
    q2 = Tensor(q.data.copy(), requires_grad=True)
    with GradTape() as tape2:
        v2 = ad.softmax_temperature(q2, 1.0)
        loss2 = tks_loss(v2, TeacherSignal(z=sig.z.copy(), selected=sel))
    backward(loss2, tape2)
    assert np.array_equal(g1, q2.grad)


# ---------------------------------------------------------------------------
# losses


def test_tks_loss_perfect_onehot_fit_is_zero():
    z = TeacherSignal(z=np.array([[0.0, 1.0]], dtype=np.float32), selected=np.array([[0]]))
    v = probs([[0.0, 1.0]], [[0.0, 1.0]])
    assert tks_loss(Tensor(v), z).item() == pytest.approx(0.0, abs=1e-6)


def test_tks_loss_uniform_entropy():
    z = TeacherSignal(z=np.array([[0.5, 0.5]], dtype=np.float32), selected=np.array([[0]]))
    v = probs([[0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]])
    assert tks_loss(Tensor(v), z).item() == pytest.approx(np.log(2), abs=1e-6)


def test_tks_loss_clamped_divergence():
    z = TeacherSignal(z=np.array([[0.5, 0.5]], dtype=np.float32), selected=np.array([[0]]))
    v = probs([[1.0, 0.0]])
    # -0.5*log(1) - 0.5*log(clamp) with the documented 1e-12 floor
    assert tks_loss(Tensor(v), z).item() == pytest.approx(-0.5 * LOG_K, rel=1e-5)


def test_tks_loss_lower_bound_is_teacher_entropy():
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = softmax(rng.normal(size=(4, 5))).astype(np.float32)
        v = softmax(rng.normal(size=(6, 4, 5))).astype(np.float32)
        sig = TeacherSignal(z=z, selected=np.zeros((4, 1), dtype=int))
        loss = tks_loss(Tensor(v), sig).item()
        entropy = float(-(z * np.log(np.maximum(z, 1e-12))).sum(axis=1).mean())
        assert loss >= entropy - 1e-6
    # equality when every sub-model matches the teacher
    v_eq = np.tile(z[None], (6, 1, 1))
    assert tks_loss(Tensor(v_eq), sig).item() == pytest.approx(entropy, abs=1e-6)


def test_ce_loss_perfect_prediction():
    v = probs([[0.0, 1.0]], [[0.0, 1.0]])
    assert ce_loss(temporal(v).o, np.array([1])).item() == pytest.approx(0.0, abs=1e-6)


def test_ce_loss_uniform_aggregate():
    v = probs([[0.5, 0.5]])
    assert ce_loss(temporal(v).o, np.array([0])).item() == pytest.approx(np.log(2), abs=1e-6)


def test_ce_loss_duplicate_sample_invariance():
    v1 = probs([[0.3, 0.7]], [[0.6, 0.4]])
    v2 = np.concatenate([v1, v1], axis=1)
    a = ce_loss(temporal(v1).o, np.array([1])).item()
    b = ce_loss(temporal(v2).o, np.array([1, 1])).item()
    assert a == pytest.approx(b, abs=1e-7)


def test_ce_loss_takes_the_aggregate_not_per_timestep_outputs():
    v = probs([[0.3, 0.7]], [[0.6, 0.4]])
    with pytest.raises(ContractError, match=r"aggregate o \[B,C\]"):
        ce_loss(Tensor(v), np.array([1]))


def test_every_loss_rejects_out_of_range_labels():
    v = probs([[0.3, 0.7], [0.5, 0.5]], [[0.6, 0.4], [0.2, 0.8]])
    out = temporal(v)
    for bad in (-1, 2, 0.5):  # a fractional label would select no class at all
        labels = np.array([0, bad])
        with pytest.raises(DataError, match=r"labels must be integers in \[0,2\)"):
            ce_loss(out.o, labels)
        for mode in ("none", "label_smoothing", "per_timestep_labels"):
            with pytest.raises(DataError, match=r"labels must be integers in \[0,2\)"):
                baseline_loss(mode, out, labels, 0.1)
        with pytest.raises(DataError, match=r"labels must be integers in \[0,2\)"):
            select_teachers(v, labels, 1)


LOSSES_OF_LABELS = {
    "select_teachers": lambda out, labels: select_teachers(out.v.data, labels, 1),
    "ce_loss": lambda out, labels: ce_loss(out.o, labels),
    "label_smoothing": lambda out, labels: baseline_loss("label_smoothing", out, labels, 0.1),
    "per_timestep_labels": lambda out, labels: baseline_loss("per_timestep_labels", out, labels),
}


@pytest.mark.parametrize("labels", [[2], [0, 1], [0, 1, 2, 0], [[0], [1], [2]]])
@pytest.mark.parametrize("loss", LOSSES_OF_LABELS)
def test_every_loss_rejects_a_label_count_other_than_the_batch(loss, labels):
    # B=3: a single label must not broadcast over the whole batch
    rng = np.random.default_rng(0)
    out = temporal(softmax(rng.normal(size=(4, 3, 3))).astype(np.float32))
    with pytest.raises(DataError, match="3 samples need 3 labels"):
        LOSSES_OF_LABELS[loss](out, np.array(labels))
    LOSSES_OF_LABELS[loss](out, np.array([2, 0, 1]))


@pytest.mark.parametrize("selected, match", [
    ([[0], [4], [1]], r"in \[0,4\)"),  # a timestep past T
    ([[0], [-1], [1]], r"in \[0,4\)"),  # a negative one would count from the end
    ([[0], [1]], r"\[B=3,k\]"),  # too few rows
    ([[0], [1], [2], [3]], r"\[B=3,k\]"),  # too many
    ([0, 1, 2], r"\[B=3,k\]"),  # not [B,k]
])
def test_teacher_rejects_a_selection_that_does_not_index_the_outputs(selected, match):
    q = np.zeros((4, 3, 2), dtype=np.float32)
    with pytest.raises(ContractError, match=match):
        teacher_signal(q, np.array(selected), 1.0)


def test_final_loss_degeneracies_and_hand_value():
    def mix(l_ce, l_tks, alpha, tau):
        return final_loss(Tensor(l_ce), Tensor(l_tks), alpha, tau).item()

    assert mix(1.25, 9.0, 0.0, 3.0) == pytest.approx(1.25)
    assert mix(1.25, 9.0, 1.0, 1.0) == pytest.approx(9.0)
    assert mix(1.0, 1.0, 0.5, 2.0) == pytest.approx(2.5)  # 0.5 + 0.5*4


def test_final_loss_affine_identity_on_graph_tensors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l_ce = float(rng.uniform(0, 5))
        l_tks = float(rng.uniform(0, 5))
        alpha = float(rng.uniform(0, 1))
        tau = float(rng.uniform(0.5, 5))
        graph = final_loss(Tensor(l_ce), Tensor(l_tks), alpha, tau).item()
        assert graph == pytest.approx((1 - alpha) * l_ce + alpha * tau * tau * l_tks, rel=1e-6)


def test_final_loss_rejects_alpha_outside_unit_interval():
    with pytest.raises(ParameterError):
        final_loss(Tensor(1.0), Tensor(1.0), 1.5, 1.0)


# ---------------------------------------------------------------------------
# objective: the loss of one training step, per teacher mode


def objective_tape(cfg, alpha):
    """One mlp-small step at B=32, T=10 under cfg, recorded on a tape:
    (tape length, loss, l_ce, l_tks, outputs, labels)."""
    data = synth_temporal(8, 10, 4, 0.3, seed=0)
    model = build_model("mlp-small", data.sample_shape, 4, LifConfig(), SurrogateSpec(), 0)
    with GradTape() as tape:
        out = unroll(model, prepare_sequence(data.inputs, data.temporal, 10))
        loss, l_ce, l_tks = objective(out, data.labels, cfg, alpha)
    return len(tape), loss, l_ce, l_tks, out, data.labels


def test_objective_tape_nodes_per_mode():
    # the unroll records 10 nodes; each cross-entropy adds log, mul, sum_last
    # and mean; the tks mix adds two scales and an add
    assert objective_tape(TeacherConfig(mode="none"), 0.0)[0] == 14
    # at alpha=0 the tks graph is exactly the plain CE graph
    assert objective_tape(TeacherConfig(mode="tks"), 0.0)[0] == 14
    assert objective_tape(TeacherConfig(mode="tks"), 0.5)[0] == 21
    assert objective_tape(TeacherConfig(mode="label_smoothing"), 0.0)[0] == 14
    assert objective_tape(TeacherConfig(mode="per_timestep_labels"), 0.0)[0] == 14


def test_objective_tks_is_final_loss_of_ce_and_tks():
    cfg = TeacherConfig(mode="tks", k=2, tau=3.0)
    _, loss, l_ce, l_tks, out, y = objective_tape(cfg, 0.4)
    ce = ce_loss(out.o, y)
    sig = teacher_signal(out.q.data, select_teachers(out.v.data, y, cfg.k), cfg.tau)
    distill = tks_loss(out.v, sig)
    assert (l_ce, l_tks) == (ce.item(), distill.item())
    assert loss.item() == final_loss(ce, distill, 0.4, cfg.tau).item()


def test_objective_tks_at_zero_alpha_is_ce_and_still_reports_tks():
    cfg = TeacherConfig(mode="tks", k=2, tau=3.0)
    _, loss, l_ce, l_tks, out, y = objective_tape(cfg, 0.0)
    sig = teacher_signal(out.q.data, select_teachers(out.v.data, y, cfg.k), cfg.tau)
    assert loss.item() == l_ce == ce_loss(out.o, y).item()
    assert l_tks == tks_loss(out.v, sig).item() > 0.0


def test_objective_comparison_modes_report_own_loss_as_ce():
    for mode in ("none", "label_smoothing", "per_timestep_labels"):
        cfg = TeacherConfig(mode=mode, epsilon=0.1)
        _, loss, l_ce, l_tks, out, y = objective_tape(cfg, 0.0)
        assert l_ce == loss.item() == baseline_loss(mode, out, y, 0.1).item()
        assert l_tks == 0.0


# Float32 numpy oracles of every loss, written without the shared
# cross-entropy: a label loss gathers the label's probability, takes the
# floored log and the mean, and negates; a target-weighted loss sums target *
# floored log over classes, takes the mean and negates. Each backward is the
# chain of those steps' derivatives in the same float32 order, so the
# comparisons are bit for bit.
F = np.float32
FLOOR = F(ad.LOG_FLOOR)


def floored_log_grad(g, p):
    """The floored log's backward at p for upstream g: zero where p is clamped."""
    return g * (p >= ad.LOG_FLOOR).astype(F) / np.maximum(p, FLOOR)


def gathered_ce(p, y, coef=F(1)):
    """-mean log p[..., b, y_b] over every leading index, and coef times its gradient."""
    idx = np.broadcast_to(y[:, None], p.shape[:-1] + (1,))
    picked = np.take_along_axis(p, idx, axis=-1)[..., 0]
    grad = np.zeros_like(p)
    np.put_along_axis(grad, idx, floored_log_grad(-coef / F(picked.size), picked)[..., None], -1)
    return -np.mean(np.log(np.maximum(picked, FLOOR))), grad


def weighted_ce(p, target, coef=F(1)):
    """-mean sum_c target * log p over every leading index, and coef times its gradient."""
    per = np.sum(target * np.log(np.maximum(p, FLOOR)), axis=-1)
    return -np.mean(per), floored_log_grad((-coef / F(per.size)) * target, p)


def oracle_objective(v, q, y, cfg, alpha):
    """The loss of one step and its gradient with respect to v [T,B,C]."""
    t, b, c = v.shape
    o = np.mean(v, axis=0)

    def through_o(g_o):  # the backward of o = mean(v, axis=0)
        return np.broadcast_to(g_o / F(t), v.shape)

    if cfg.mode == "per_timestep_labels":
        return gathered_ce(v, y)
    if cfg.mode == "label_smoothing":
        target = np.full((b, c), cfg.epsilon / c, dtype=F)
        target[np.arange(b), y] += F(1.0 - cfg.epsilon)
        loss, g_o = weighted_ce(o, target)
        return loss, through_o(g_o)
    if cfg.mode == "none" or alpha == 0.0:
        loss, g_o = gathered_ce(o, y)
        return loss, through_o(g_o)
    true_prob = np.take_along_axis(v, np.broadcast_to(y[None, :, None], (t, b, 1)), axis=2)[..., 0]
    selected = np.sort(np.argsort(-true_prob, axis=0, kind="stable")[: cfg.k], axis=0).T
    assert np.array_equal(select_teachers(v, y, cfg.k), selected)
    z = teacher_signal(q, selected, cfg.tau).z
    c_ce, c_tks = F(1.0 - alpha), F(alpha * cfg.tau * cfg.tau)
    l_ce, g_o = gathered_ce(o, y, c_ce)
    l_tks, g_v = weighted_ce(v, z, c_tks)
    return l_ce * c_ce + l_tks * c_tks, g_v + through_o(g_o)


# probabilities on both sides of the log floor, and at it
PROB = st.sampled_from([0.0, 1e-13, float(FLOOR), 3e-12]) | st.floats(2.0**-20, 1.0, width=32)


@st.composite
def loss_cases(draw):
    t, b, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    n = t * b * c
    v = np.array(draw(st.lists(PROB, min_size=n, max_size=n)), dtype=F).reshape(t, b, c)
    q = np.array(draw(st.lists(st.floats(-8, 8, width=32), min_size=n, max_size=n)),
                 dtype=F).reshape(t, b, c)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=b, max_size=b)))
    return (v, q, y, draw(st.integers(1, t)), draw(st.floats(0.5, 5.0)),
            draw(st.floats(0.0, 0.99)), draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))


@pytest.mark.parametrize("mode", ["tks", "none", "label_smoothing", "per_timestep_labels"])
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=loss_cases())
def test_objective_matches_the_gather_then_log_oracle_bit_for_bit(mode, case):
    v, q, y, k, tau, epsilon, alpha = case
    cfg = TeacherConfig(mode=mode, k=k, tau=tau, epsilon=epsilon)
    leaf = Tensor(v, requires_grad=True)
    with GradTape() as tape:
        loss, _, _ = objective(temporal(leaf, Tensor(q)), y, cfg, alpha)
    backward(loss, tape)
    want_loss, want_grad = oracle_objective(v, q, y, cfg, alpha)
    assert np.array_equal(loss.data, want_loss)
    assert np.array_equal(leaf.grad, want_grad)


# ---------------------------------------------------------------------------
# alpha schedule


def test_alpha_starts_at_zero():
    assert alpha_at(0, AlphaSchedule(0.0, 0.7, 50)) == 0.0


def test_alpha_reaches_end_value_in_final_epoch():
    assert alpha_at(49, AlphaSchedule(0.0, 0.7, 50)) == pytest.approx(0.7)


def test_alpha_midpoint():
    assert alpha_at(50, AlphaSchedule(0.0, 0.7, 101)) == pytest.approx(0.35)


def test_alpha_single_epoch_returns_end():
    assert alpha_at(0, AlphaSchedule(0.0, 0.7, 1)) == pytest.approx(0.7)


def test_alpha_monotone_nondecreasing():
    sched = AlphaSchedule(0.1, 0.9, 37)
    values = [alpha_at(e, sched) for e in range(37)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_alpha_epoch_out_of_range():
    with pytest.raises(ParameterError):
        alpha_at(50, AlphaSchedule(0.0, 0.7, 50))


@pytest.mark.parametrize("bounds", [("abc", 0.7), (0.0, None)])
def test_alpha_schedule_bounds_must_be_numbers(bounds):
    with pytest.raises(ParameterError, match="alpha bound must be a finite number"):
        AlphaSchedule(*bounds, 50)


# ---------------------------------------------------------------------------
# baseline modes


def test_label_smoothing_zero_epsilon_equals_plain_ce():
    rng = np.random.default_rng(9)
    v = softmax(rng.normal(size=(4, 6, 5))).astype(np.float32)
    y = rng.integers(0, 5, size=6)
    a = baseline_loss("none", temporal(v), y).item()
    b = baseline_loss("label_smoothing", temporal(v), y, epsilon=0.0).item()
    assert a == b  # bit-exact degeneracy


def test_per_timestep_labels_constant_in_t_equals_ce():
    v1 = probs([[0.3, 0.7]])
    v = np.tile(v1, (5, 1, 1))
    a = baseline_loss("per_timestep_labels", temporal(v), np.array([1])).item()
    b = ce_loss(temporal(v).o, np.array([1])).item()
    assert a == pytest.approx(b, abs=1e-6)


def test_label_smoothing_hand_expansion():
    v = probs([[1.0, 0.0]])
    loss = baseline_loss("label_smoothing", temporal(v), np.array([0]), epsilon=0.1).item()
    assert loss == pytest.approx(-(0.95 * 0.0 + 0.05 * LOG_K), rel=1e-5)


def test_unknown_baseline_mode():
    with pytest.raises(ConfigError):
        baseline_loss("boosting", temporal(probs([[1.0, 0.0]])), np.array([0]))


def test_teacher_config_validation():
    with pytest.raises(ConfigError):
        TeacherConfig(mode="bagging")
    with pytest.raises(ParameterError):
        TeacherConfig(k=0)
    for k in (1.5, 2.0, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            TeacherConfig(k=k)
    with pytest.raises(ParameterError):
        TeacherConfig(tau=0.0)
    with pytest.raises(ParameterError):
        TeacherConfig(epsilon=1.0)
    for field, name in (("tau", "temperature"), ("epsilon", "smoothing epsilon")):
        with pytest.raises(ParameterError, match=f"{name} must be a finite number"):
            TeacherConfig(**{field: "abc"})
