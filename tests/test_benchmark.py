import re

from rtda.benchmark import BenchmarkSettings, adaptation_gap

# A 6-iteration, 32x32 gap run over seeds 0 and 1: every mIoU float and
# every progress line, with the elapsed-seconds suffix stripped.
PINNED_BASELINE = [0.14698333178744982, 0.08887407211114207]
PINNED_ADAPTED = [0.14423229822813194, 0.09886642811744817]
PINNED_LOG = """\
  seed 0 weight 0 iter 1/6 l_seg 2.0590 l_adv 0.0000 l_d 0.0000
  seed 0 weight 0 iter 2/6 l_seg 1.7500 l_adv 0.0000 l_d 0.0000
  seed 0 weight 0 iter 3/6 l_seg 1.4018 l_adv 0.0000 l_d 0.0000
  seed 0 weight 0 iter 4/6 l_seg 1.1925 l_adv 0.0000 l_d 0.0000
  seed 0 weight 0 iter 5/6 l_seg 1.0420 l_adv 0.0000 l_d 0.0000
  seed 0 weight 0 iter 6/6 l_seg 0.9530 l_adv 0.0000 l_d 0.0000
seed 0: source-only target mIoU 0.1470
  seed 0 weight 0.01 iter 1/6 l_seg 2.0590 l_adv 0.6931 l_d 1.3863
  seed 0 weight 0.01 iter 2/6 l_seg 1.7500 l_adv 0.6944 l_d 1.3862
  seed 0 weight 0.01 iter 3/6 l_seg 1.4018 l_adv 0.6933 l_d 1.3863
  seed 0 weight 0.01 iter 4/6 l_seg 1.1925 l_adv 0.6921 l_d 1.3855
  seed 0 weight 0.01 iter 5/6 l_seg 1.0420 l_adv 0.6910 l_d 1.3854
  seed 0 weight 0.01 iter 6/6 l_seg 0.9530 l_adv 0.6904 l_d 1.3855
seed 0: adapted target mIoU 0.1442
  seed 1 weight 0 iter 1/6 l_seg 2.2199 l_adv 0.0000 l_d 0.0000
  seed 1 weight 0 iter 2/6 l_seg 1.8478 l_adv 0.0000 l_d 0.0000
  seed 1 weight 0 iter 3/6 l_seg 1.6454 l_adv 0.0000 l_d 0.0000
  seed 1 weight 0 iter 4/6 l_seg 1.2837 l_adv 0.0000 l_d 0.0000
  seed 1 weight 0 iter 5/6 l_seg 1.1058 l_adv 0.0000 l_d 0.0000
  seed 1 weight 0 iter 6/6 l_seg 0.9767 l_adv 0.0000 l_d 0.0000
seed 1: source-only target mIoU 0.0889
  seed 1 weight 0.01 iter 1/6 l_seg 2.2199 l_adv 0.6931 l_d 1.3863
  seed 1 weight 0.01 iter 2/6 l_seg 1.8478 l_adv 0.6922 l_d 1.3861
  seed 1 weight 0.01 iter 3/6 l_seg 1.6454 l_adv 0.6934 l_d 1.3860
  seed 1 weight 0.01 iter 4/6 l_seg 1.2837 l_adv 0.6940 l_d 1.3856
  seed 1 weight 0.01 iter 5/6 l_seg 1.1058 l_adv 0.6944 l_d 1.3855
  seed 1 weight 0.01 iter 6/6 l_seg 0.9767 l_adv 0.6947 l_d 1.3855
seed 1: adapted target mIoU 0.0989
"""


def test_short_gap_report_pinned():
    lines = []
    settings = BenchmarkSettings(image_size=32, max_iter=6, n_source=4, n_target=4, n_eval=4)
    report = adaptation_gap(seeds=(0, 1), settings=settings, log=lines.append)
    assert report.baseline == PINNED_BASELINE
    assert report.adapted == PINNED_ADAPTED
    assert "".join(re.sub(r" \(\d+s\)$", "", line) + "\n" for line in lines) == PINNED_LOG
