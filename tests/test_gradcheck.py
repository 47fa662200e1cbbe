import time

from rtda.gradcheck import run_primitive_suite

EXPECTED_OPS = {
    "add", "add_broadcast", "mul", "mul_broadcast", "scale", "sigmoid",
    "softplus", "relu", "leaky_relu", "reduce_sum", "reduce_mean",
    "global_average_pool", "softmax_channels", "concat_channels",
    "bilinear_upsample", "masked_nll", "slice_batch", "conv2d",
    "depthwise_conv2d", "batch_norm_train", "batch_norm_eval",
}


def test_every_primitive_within_tolerance():
    """Central finite differences at 64-bit, 20 random instances per op."""
    t0 = time.monotonic()
    report = run_primitive_suite(instances_per_op=20, seed=2024)
    elapsed = time.monotonic() - t0
    assert set(report) == EXPECTED_OPS
    worst = max(report.values())
    assert worst < 1e-4, {k: v for k, v in report.items() if v >= 1e-4}
    assert elapsed < 60.0


def test_suite_seed_changes_instances():
    a = run_primitive_suite(instances_per_op=2, seed=1)
    b = run_primitive_suite(instances_per_op=2, seed=2)
    assert set(a) == set(b)
    assert a != b


def test_one_instance_checks_every_primitive():
    """Every op gets its instance whatever the draws: no batch or kernel
    size can make the suite skip one and still report success."""
    for seed in range(12):
        assert set(run_primitive_suite(instances_per_op=1, seed=seed)) == EXPECTED_OPS, seed
