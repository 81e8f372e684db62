"""Every count argument goes through one integer check: its boundary values."""

import argparse

import pytest

from polydome import cli
from polydome.analysis import VolumeReport, monte_carlo_volume, plane_section
from polydome.slabs import build_slab_stack, slice_volume
from polydome.surface import SolidSpec

SQUARE = SolidSpec(4, 1.0)

# The name each message uses -> (a call taking the count, the smallest valid count).
COUNTS = {
    "samples": (lambda k: monte_carlo_volume(SQUARE, k), 1),
    "seed": (lambda k: monte_carlo_volume(SQUARE, 10, k), 0),
    "points_per_branch": (lambda k: plane_section(0.3, SQUARE, k), 2),
    "sample_count": (lambda k: VolumeReport(1.0, sample_count=k), 1),
    "slab count m": (lambda k: build_slab_stack(k, SQUARE), 1),
    "slab index": (lambda k: slice_volume(k, 3, SQUARE), 1),
    "a-samples": (lambda k: cli.cmd_params(argparse.Namespace(n=4, R=1.0, a_samples=k)), 0),
}


@pytest.mark.parametrize("name", COUNTS)
def test_minimum_is_accepted(name):
    call, minimum = COUNTS[name]
    call(minimum)


@pytest.mark.parametrize("name", COUNTS)
def test_one_below_the_minimum_is_rejected(name):
    call, minimum = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be at least {minimum}, got {minimum - 1}$"):
        call(minimum - 1)


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize("name", COUNTS)
def test_non_integers_are_rejected(name, value):
    call, _ = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


def test_slab_index_above_the_count_is_rejected():
    assert slice_volume(3, 3, SQUARE) > 0.0
    with pytest.raises(ValueError, match="^slab index must be at most 3, got 4$"):
        slice_volume(4, 3, SQUARE)


def test_sample_count_is_stored_as_an_int():
    report = VolumeReport(1.0, sample_count=3.0)
    assert type(report.sample_count) is int and report.to_json().endswith('"sample_count": 3, "seed": null}')
