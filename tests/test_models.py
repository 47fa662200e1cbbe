import numpy as np
import pytest

import rtda.tensor as T
from rtda.models import (
    DISCRIMINATOR_VARIANTS,
    build_discriminator,
    build_mini_bisenet,
    canonical_variant,
    count_flops,
    discriminator_cost,
)
from rtda.nn import num_params
from rtda.tensor import ShapeError, Tensor

from oracles import tally_conv_multiplies

PARAM_TARGETS = {"fcd": 2_781_121, "fcd-light": 191_364, "fcd-light-thin": 13_316}
GFLOP_TARGETS = {"fcd": 30.883e9, "fcd-light": 2.14e9, "fcd-light-thin": 1.038e9}


def rand_image(shape, seed):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


# ---------------------------------------------------------------------------
# discriminators


@pytest.mark.parametrize("variant,count", sorted(PARAM_TARGETS.items()))
def test_discriminator_param_counts_exact(variant, count):
    model = build_discriminator(variant, 19, init=False)
    assert num_params(model) == count


@pytest.mark.parametrize("variant,target", sorted(GFLOP_TARGETS.items()))
def test_discriminator_flops_within_half_percent(variant, target):
    report = discriminator_cost(variant, 19, 512, 1024)
    rel = abs(report.total_flops - target) / target
    assert rel < 0.005
    assert report.total_flops == 2 * report.total_macs


def test_variant_ordering_strict():
    params = [num_params(build_discriminator(v, 19, init=False)) for v in DISCRIMINATOR_VARIANTS]
    flops = [discriminator_cost(v, 19, 512, 1024).total_flops for v in DISCRIMINATOR_VARIANTS]
    assert params[0] > params[1] > params[2]
    assert flops[0] > flops[1] > flops[2]


@pytest.mark.parametrize("variant", DISCRIMINATOR_VARIANTS)
def test_cost_model_matches_loop_tally(variant):
    model = build_discriminator(variant, 19, init=False)
    report = count_flops(model, 32, 64)
    assert report.total_macs == tally_conv_multiplies(model, 32, 64)


# Per-layer rows of every variant at the paper's resolution and at the
# benchmark's, fixed so a change to the cost formula shows row by row.
PINNED_COST_CSV = {
    ("fcd", 19, 512, 1024): """layer,params,macs,flops
conv1 (19->64),19520,2550136832,5100273664
conv2 (64->128),131200,4294967296,8589934592
conv3 (128->256),524544,4294967296,8589934592
conv4 (256->512),2097664,4294967296,8589934592
conv5 (512->1),8193,4194304,8388608
total,2781121,15439233024,30878466048
""",
    ("fcd", 5, 64, 64): """layer,params,macs,flops
conv1 (5->64),5184,5242880,10485760
conv2 (64->128),131200,33554432,67108864
conv3 (128->256),524544,33554432,67108864
conv4 (256->512),2097664,33554432,67108864
conv5 (512->1),8193,32768,65536
total,2766785,105938944,211877888
""",
    ("fcd-light", 19, 512, 1024): """layer,params,macs,flops
conv1 (19->64),1603,199229440,398458880
conv2 (64->128),9408,301989888,603979776
conv3 (128->256),35200,285212672,570425344
conv4 (256->512),135936,276824064,553648128
conv5 (512->1),9217,4456448,8912896
total,191364,1067712512,2135425024
""",
    ("fcd-light", 5, 64, 64): """layer,params,macs,flops
conv1 (5->64),469,409600,819200
conv2 (64->128),9408,2359296,4718592
conv3 (128->256),35200,2228224,4456448
conv4 (256->512),135936,2162688,4325376
conv5 (512->1),9217,34816,69632
total,190230,7194624,14389248
""",
    ("fcd-light-thin", 19, 512, 1024): """layer,params,macs,flops
conv1 (19->64),1603,199229440,398458880
conv2 (64->128),9408,301989888,603979776
conv3 (128->1),2305,17825792,35651584
total,13316,519045120,1038090240
""",
    ("fcd-light-thin", 5, 64, 64): """layer,params,macs,flops
conv1 (5->64),469,409600,819200
conv2 (64->128),9408,2359296,4718592
conv3 (128->1),2305,139264,278528
total,12182,2908160,5816320
""",
}


@pytest.mark.parametrize("key", sorted(PINNED_COST_CSV))
def test_cost_rows_pinned(key):
    assert discriminator_cost(*key).to_csv() == PINNED_COST_CSV[key]


def test_flops_scale_linearly_in_area():
    small = discriminator_cost("fcd", 19, 64, 128)
    large = discriminator_cost("fcd", 19, 128, 256)
    assert large.total_macs == 4 * small.total_macs
    assert num_params(build_discriminator("fcd", 19, init=False)) == \
        num_params(build_discriminator("fcd", 19, init=False))


def test_params_invariant_to_resolution():
    a = discriminator_cost("fcd-light", 19, 64, 64)
    b = discriminator_cost("fcd-light", 19, 256, 512)
    assert a.total_params == b.total_params


@pytest.mark.parametrize("variant,factor", [("fcd", 32), ("fcd-light", 32), ("fcd-light-thin", 8)])
def test_discriminator_output_spatial_size(variant, factor):
    model = build_discriminator(variant, 5, seed=1)
    out = model(rand_image((1, 5, 64, 64), 0))
    assert out.shape == (1, 1, 64 // factor, 64 // factor)


def test_fcd_shape_at_paper_resolution():
    # five stride-2 halvings: 512x1024 -> 16x32, checked via the cost model rows
    report = discriminator_cost("fcd", 19, 512, 1024)
    assert report.rows[-1].macs == 512 * 1 * 16 * (512 // 32) * (1024 // 32)


def test_variant_aliases():
    assert canonical_variant("FCD") == "fcd"
    assert canonical_variant("fcd-light&thin") == "fcd-light-thin"
    assert canonical_variant("FCD-Light") == "fcd-light"
    with pytest.raises(ValueError):
        canonical_variant("fcd-heavy")


def test_unknown_variant_raises():
    with pytest.raises(ValueError):
        build_discriminator("banana", 19)


def test_final_zero_init_gives_zero_logits():
    model = build_discriminator("fcd-light-thin", 5, seed=3, final_zero_init=True)
    out = model(rand_image((2, 5, 64, 64), 7))
    assert np.all(out.data == 0.0)


def test_discriminator_init_seed_determinism():
    a = build_discriminator("fcd-light", 7, seed=11)
    b = build_discriminator("fcd-light", 7, seed=11)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_cost_report_csv_format():
    report = discriminator_cost("fcd-light-thin", 19, 32, 64)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "layer,params,macs,flops"
    assert lines[-1].startswith("total,")
    total = lines[-1].split(",")
    assert int(total[1]) == report.total_params
    assert int(total[3]) == report.total_flops
    body = lines[1:-1]
    assert sum(int(r.split(",")[1]) for r in body) == report.total_params


# ---------------------------------------------------------------------------
# segmentation network


def test_mini_bisenet_output_shape_and_softmax():
    model = build_mini_bisenet(5, seed=2)
    x = rand_image((1, 3, 64, 64), 1)
    logits = model(x)
    assert logits.shape == (1, 5, 64, 64)
    probs = T.softmax_channels(logits)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)


def test_mini_bisenet_param_closed_form():
    def conv_params(ci, co, k):
        return ci * co * k * k + co

    def conv_bn(ci, co, k):
        return conv_params(ci, co, k) + 2 * co

    def attention(c):
        return conv_params(c, c, 1)

    expected = (
        conv_bn(3, 16, 3) + conv_bn(16, 32, 3) + conv_bn(32, 64, 3)      # spatial path
        + conv_bn(3, 16, 3)                                              # context stem
        + conv_bn(16, 32, 3) + conv_bn(32, 64, 3) + conv_bn(64, 64, 3)   # stage to 1/16
        + conv_bn(64, 128, 3)                                            # stage to 1/32
        + attention(64) + attention(128)                                 # attention gates
        + conv_params(128, 128, 1)                                       # global context tail
        + conv_bn(128, 64, 1) + conv_bn(64, 64, 1)                       # heads at 1/32 and 1/16
        + conv_bn(128, 64, 1) + conv_params(64, 64, 1)                   # fusion block
        + conv_params(64, 5, 1)                                          # classifier
    )
    model = build_mini_bisenet(5, init=False)
    assert num_params(model) == expected == 221_509


def test_mini_bisenet_width_multiplier():
    wide = build_mini_bisenet(5, width_multiplier=2.0, init=False)
    narrow = build_mini_bisenet(5, width_multiplier=0.5, init=False)
    base = build_mini_bisenet(5, init=False)
    assert num_params(narrow) < num_params(base) < num_params(wide)
    out = build_mini_bisenet(5, width_multiplier=0.5, seed=4)(rand_image((1, 3, 32, 32), 3))
    assert out.shape == (1, 5, 32, 32)


def test_mini_bisenet_rejects_bad_input():
    model = build_mini_bisenet(4, init=False)
    with pytest.raises(ShapeError):
        model(rand_image((1, 3, 48, 64), 0))  # 48 not divisible by 32
    with pytest.raises(ShapeError):
        model(rand_image((1, 4, 64, 64), 0))


def test_mini_bisenet_train_mode_updates_running_stats():
    model = build_mini_bisenet(3, seed=5)
    before = [b.copy() for _, b in model.named_buffers()]
    model(rand_image((2, 3, 32, 32), 9), train=True)
    after = [b for _, b in model.named_buffers()]
    assert any(not np.array_equal(x, y) for x, y in zip(before, after))
    # eval mode leaves them alone
    frozen = [b.copy() for _, b in model.named_buffers()]
    model(rand_image((2, 3, 32, 32), 10), train=False)
    assert all(np.array_equal(x, y) for x, y in zip(frozen, (b for _, b in model.named_buffers())))
