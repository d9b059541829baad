"""The self-verification suite must pass on a healthy build and must catch
injected defects (mutation smoke tests)."""
import boxdistill.cld as cld_mod
import boxdistill.xgd as xgd_mod
from boxdistill.verify import (
    check_assignment_bruteforce,
    check_cld_invariants,
    check_clip_kernel_bit_identity,
    check_codec_roundtrip,
    check_component_update_bruteforce,
    check_focal_bit_identity,
    check_gate_soundness,
    check_geometry_closed_forms,
    check_threaded_step_bit_identity,
    check_training_grad_fd,
    verify_suite,
)


def test_fast_suite_passes():
    results = verify_suite(fast=True)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    assert {r.name for r in results} == {
        "mc_iou_agreement",
        "geometry_closed_forms",
        "component_update_bruteforce",
        "gate_soundness",
        "cld_invariants",
        "cld_grad_fd",
        "codec_roundtrip",
        "assignment_bruteforce",
        "iou_grad_self_consistency",
        "clip_kernel_bit_identity",
        "focal_bit_identity",
        "training_grad_fd",
        "threaded_step_bit_identity",
    }


def test_injected_gate_sign_flip_is_caught(monkeypatch):
    # The training gate keeps the obtuse steps: a negated teacher step has
    # the same length and the opposite cosine.
    original = xgd_mod._acute
    monkeypatch.setattr(xgd_mod, "_acute", lambda t_step, g_step: original(-t_step, g_step))
    assert not check_gate_soundness(n_cases=2000).passed


def test_injected_gate_margin_is_caught(monkeypatch):
    # The training gate keeps a component only when cos_beta > 0.01: the
    # one float literal of _acute, 0.0, becomes 0.01.
    import types

    fn = xgd_mod._acute
    consts = fn.__code__.co_consts
    assert [c for c in consts if type(c) is float] == [0.0]
    code = fn.__code__.replace(co_consts=tuple(0.01 if type(c) is float else c for c in consts))
    monkeypatch.setattr(xgd_mod, "_acute", types.FunctionType(code, fn.__globals__, fn.__name__))
    assert not check_gate_soundness(n_cases=10_000).passed


def test_injected_kl_order_swap_is_caught(monkeypatch):
    original = cld_mod.cld_loss
    monkeypatch.setattr(cld_mod, "cld_loss", lambda t, s: original(s, t))
    result = check_cld_invariants()
    assert not result.passed
    assert "hand value" in result.detail


def test_injected_area_bias_is_caught(monkeypatch):
    import boxdistill.geometry as geom

    original = geom.iou3d

    def biased(a, b, flags=None):
        return min(1.0, original(a, b, flags) * 1.02)

    monkeypatch.setattr(geom, "iou3d", biased)
    assert not check_geometry_closed_forms().passed


def test_injected_update_rule_change_is_caught(monkeypatch):
    # treat the orthogonal/negative case as keep-teacher
    original = xgd_mod.gate_decisions

    def lenient(teacher, student, gt):
        decisions = original(teacher, student, gt)
        decisions[:, 0] = True
        return decisions

    monkeypatch.setattr(xgd_mod, "gate_decisions", lenient)
    assert not check_component_update_bruteforce(n_cases=300).passed


def test_injected_codec_bias_is_caught(monkeypatch):
    import boxdistill.anchors as anchors_mod

    original = anchors_mod.decode_deltas

    def biased(deltas, anchor_params, flags=None):
        boxes = original(deltas, anchor_params, flags)
        boxes[:, 0] += 1e-6
        return boxes

    monkeypatch.setattr(anchors_mod, "decode_deltas", biased)
    assert not check_codec_roundtrip(n_cases=300).passed


def test_injected_kernel_merge_tolerance_is_caught(monkeypatch):
    # Rebuild the batched clip kernel over a copy of the module globals in
    # which only the kernel sees a 1000x looser merge tolerance.
    import types

    import boxdistill.geometry as geom

    fake_globals = dict(vars(geom), MERGE_TOL=1e-6)
    for name in ("_clip_area_rows", "_merge_degenerate_rows", "_beyond_merge_tol"):
        fn = getattr(geom, name)
        fake_globals[name] = types.FunctionType(fn.__code__, fake_globals, name, fn.__defaults__)
    monkeypatch.setattr(geom, "_clip_area_rows", fake_globals["_clip_area_rows"])
    result = check_clip_kernel_bit_identity(n_random=200)
    assert not result.passed
    assert "mismatches" in result.detail


def test_injected_fused_value_defect_is_caught(monkeypatch):
    # Rebuild the fused IoU-and-gradient routine over a copy of the module
    # globals in which only its IoU rows see areas one part in 2**40 high;
    # the gradient rows and every other call are untouched.
    import types

    import boxdistill.geometry as geom

    def scaled_iou_from_bev(bev, *args):
        if bev.ndim == 1:  # the value rows, not the (n, 7, 2) perturbations
            bev = bev * (1.0 + 2.0**-40)
        return geom._iou_from_bev(bev, *args)

    fn = geom._iou3d_grad_fd_rows
    fake_globals = dict(vars(geom), _iou_from_bev=scaled_iou_from_bev)
    monkeypatch.setattr(
        geom, "_iou3d_grad_fd_rows",
        types.FunctionType(fn.__code__, fake_globals, fn.__name__, fn.__defaults__),
    )
    result = check_clip_kernel_bit_identity(n_random=200)
    assert not result.passed
    assert "fused iou3d" in result.detail


def test_injected_fd_gradient_defect_is_caught(monkeypatch):
    # The batched FD rows, behind both iou3d_and_grad_fd and iou3d_grad_fd,
    # come out one part in 2**40 high; the per-pair loop is unaffected.
    import boxdistill.geometry as geom

    original = geom._iou3d_grad_fd_rows

    def scaled(*args, **kwargs):
        iou, grad = original(*args, **kwargs)
        return iou, grad * (1.0 + 2.0**-40)

    monkeypatch.setattr(geom, "_iou3d_grad_fd_rows", scaled)
    result = check_clip_kernel_bit_identity(n_random=200)
    assert not result.passed
    assert "fused gradient" in result.detail


def test_injected_worker_difference_is_caught(monkeypatch):
    # Logit gradients computed on a worker thread come out one part in
    # 2**40 larger than inline.
    import threading

    import boxdistill.sim as sim_mod

    original = sim_mod._classification_terms

    def off_on_workers(*args):
        cls_term, cld_term, dlogits = original(*args)
        if threading.current_thread() is not threading.main_thread():
            dlogits *= 1.0 + 2.0**-40
        return cls_term, cld_term, dlogits

    monkeypatch.setattr(sim_mod, "_classification_terms", off_on_workers)
    result = check_threaded_step_bit_identity()
    assert not result.passed
    assert "weights differ" in result.detail


def test_injected_assignment_defect_is_caught(monkeypatch):
    # The batched assignment sees IoUs one part in 2**40 high; the
    # per-anchor loop reads geometry.bev_iou directly and is unaffected.
    import boxdistill.anchors as anchors_mod

    original = anchors_mod.bev_iou
    monkeypatch.setattr(anchors_mod, "bev_iou", lambda a, b: original(a, b) * (1.0 + 2.0**-40))
    result = check_assignment_bruteforce(n_scenes=1)
    assert not result.passed
    assert "max_iou differ" in result.detail


def test_injected_bias_gradient_defect_is_caught(monkeypatch):
    # The b_reg gradient that a training step applies comes out 2% high.
    # A 1% defect would sit at the 1e-2 tolerance itself: its relative
    # error is 0.01 / 1.01.
    import boxdistill.sim as sim_mod

    original = sim_mod._minibatch_grads

    def scaled(*args):
        breakdowns, grads = original(*args)
        grads[3] = grads[3] * 1.02
        return breakdowns, grads

    monkeypatch.setattr(sim_mod, "_minibatch_grads", scaled)
    result = check_training_grad_fd(n_states=2)
    assert not result.passed
    assert "rel l2 err" in result.detail


def test_injected_focal_gradient_scale_is_caught(monkeypatch):
    # One part in 2**40 on every gradient entry.
    import boxdistill.sim as sim_mod

    original = sim_mod._focal_terms

    def scaled(*args):
        loss, grad = original(*args)
        grad *= 1.0 + 2.0**-40
        return loss, grad

    monkeypatch.setattr(sim_mod, "_focal_terms", scaled)
    result = check_focal_bit_identity(n_maps=20)
    assert not result.passed
    assert "mismatches" in result.detail
