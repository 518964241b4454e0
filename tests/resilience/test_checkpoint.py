"""Checkpoint format guarantees and crash → resume bit-identity."""

import os

import numpy as np
import pytest

from repro.core import Picasso, PicassoParams, aggressive_params
from repro.pauli import random_pauli_set
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    KEEP_CHECKPOINTS,
    CheckpointError,
    PicassoCheckpoint,
    checkpoint_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import (
    FaultInjected,
    FaultSpec,
    clear_faults,
    install_fault,
)


@pytest.fixture(autouse=True)
def _disarm():
    clear_faults()
    yield
    clear_faults()


def _ckpt(iteration=1, fingerprint="f" * 16):
    rng = np.random.default_rng(0)
    return PicassoCheckpoint(
        iteration=iteration,
        colors=np.arange(10, dtype=np.int64),
        active=np.array([3, 7], dtype=np.int64),
        base_color=4,
        palette_fraction=0.1,
        rng_state=rng.bit_generator.state,
        fingerprint=fingerprint,
        peak_bytes=123,
        iterations=[{"iteration": 1}],
    )


class TestFormat:
    def test_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path, _ckpt(iteration=5))
        back = load_checkpoint(path, "f" * 16)
        assert back.iteration == 5
        assert back.base_color == 4
        assert back.peak_bytes == 123
        np.testing.assert_array_equal(back.colors, np.arange(10))
        np.testing.assert_array_equal(back.active, [3, 7])
        # The restored RNG state drives the identical stream.
        a = np.random.default_rng(0)
        b = np.random.default_rng(999)
        b.bit_generator.state = back.rng_state
        assert a.random() == b.random()

    def test_crc_corruption_detected(self, tmp_path):
        path = save_checkpoint(tmp_path, _ckpt())
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint(path)

    def test_version_skew_detected(self, tmp_path):
        import struct

        path = save_checkpoint(tmp_path, _ckpt())
        raw = bytearray(open(path, "rb").read())
        raw[8:12] = struct.pack("<I", CHECKPOINT_VERSION + 1)
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(CheckpointError, match="format v"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = save_checkpoint(tmp_path, _ckpt())
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_foreign_file_detected(self, tmp_path):
        path = tmp_path / "picasso-it000009.ckpt"
        path.write_bytes(b"not a checkpoint at all, but long enough....")
        with pytest.raises(CheckpointError, match="not a Picasso"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = save_checkpoint(tmp_path, _ckpt(fingerprint="a" * 16))
        with pytest.raises(CheckpointError, match="different run config"):
            load_checkpoint(path, "b" * 16)

    def test_prune_keeps_newest(self, tmp_path):
        for it in range(1, KEEP_CHECKPOINTS + 4):
            save_checkpoint(tmp_path, _ckpt(iteration=it))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == KEEP_CHECKPOINTS
        assert names[-1].endswith(f"{KEEP_CHECKPOINTS + 3:06d}.ckpt")

    def test_no_tmp_litter(self, tmp_path):
        save_checkpoint(tmp_path, _ckpt())
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp")]


class TestLatest:
    def test_empty_dir_is_none(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_skips_corrupt_newest(self, tmp_path):
        good = save_checkpoint(tmp_path, _ckpt(iteration=1))
        bad = save_checkpoint(tmp_path, _ckpt(iteration=2))
        with open(bad, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 10)
        assert latest_checkpoint(tmp_path, "f" * 16) == good

    def test_fingerprint_mismatch_raises_not_skips(self, tmp_path):
        save_checkpoint(tmp_path, _ckpt(fingerprint="a" * 16))
        with pytest.raises(CheckpointError, match="refusing to mix"):
            latest_checkpoint(tmp_path, "b" * 16)

    def test_ignores_foreign_names(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / ".tmp-123-picasso-it000001.ckpt").write_bytes(b"junk")
        assert latest_checkpoint(tmp_path) is None


class TestFingerprint:
    def test_sensitive_to_algorithmic_knobs(self):
        a = checkpoint_fingerprint(PicassoParams(), 100)
        assert a == checkpoint_fingerprint(PicassoParams(), 100)
        assert a != checkpoint_fingerprint(PicassoParams(), 101)
        assert a != checkpoint_fingerprint(PicassoParams(alpha=3.0), 100)

    def test_digest_survives_params_field_removals(self):
        # Digests as written before the palette-floor and round-cap
        # fields left PicassoParams: checkpoints from that code must
        # still be found by a resumed run.
        assert checkpoint_fingerprint(PicassoParams(), 1000) == "dc1ee7254c316f32"
        assert (
            checkpoint_fingerprint(aggressive_params(), 1730)
            == "e6a46658634dc227"
        )
        assert (
            checkpoint_fingerprint(
                PicassoParams(color_engine="parallel-list"), 500
            )
            == "bc136eca7336baac"
        )

    def test_insensitive_to_execution_knobs(self):
        a = checkpoint_fingerprint(PicassoParams(), 100)
        b = checkpoint_fingerprint(
            PicassoParams(executor="pool", n_workers=4, failover="serial"),
            100,
        )
        assert a == b


class _Run:
    """One Picasso problem, colored under various interruption plans."""

    def __init__(self):
        self.ps = random_pauli_set(300, 8, seed=3)
        self.base = Picasso(params=PicassoParams(), seed=7).color(self.ps)
        assert self.base.iterations[-1].iteration >= 4, (
            "problem too easy to interrupt meaningfully"
        )

    def crash_at(self, ckpt_dir, iteration, **kw):
        install_fault(
            FaultSpec(kind="error", site="iteration", after=iteration)
        )
        params = PicassoParams(checkpoint_dir=str(ckpt_dir), **kw)
        with pytest.raises(FaultInjected):
            Picasso(params=params, seed=7).color(self.ps)
        clear_faults()

    def resume(self, ckpt_dir, **kw):
        params = PicassoParams(
            checkpoint_dir=str(ckpt_dir), resume=True, **kw
        )
        return Picasso(params=params, seed=7).color(self.ps)

    def assert_identical(self, result):
        np.testing.assert_array_equal(result.colors, self.base.colors)
        assert result.n_colors == self.base.n_colors
        # The telemetry trace is the full trace, not just the tail.
        assert len(result.iterations) == len(self.base.iterations)
        assert [s.iteration for s in result.iterations] == [
            s.iteration for s in self.base.iterations
        ]


@pytest.fixture(scope="module")
def run():
    return _Run()


class TestCrashResume:
    def test_serial_crash_then_resume_bit_identical(self, run, tmp_path):
        run.crash_at(tmp_path, iteration=2)
        assert latest_checkpoint(tmp_path) is not None
        run.assert_identical(run.resume(tmp_path))

    def test_late_crash_bit_identical(self, run, tmp_path):
        last = run.base.iterations[-1].iteration
        run.crash_at(tmp_path, iteration=last - 1)
        run.assert_identical(run.resume(tmp_path))

    def test_double_crash_bit_identical(self, run, tmp_path):
        """Crash, resume, crash again further in, resume again."""
        run.crash_at(tmp_path, iteration=1)
        install_fault(FaultSpec(kind="error", site="iteration", after=2))
        with pytest.raises(FaultInjected):
            run.resume(tmp_path)
        clear_faults()
        run.assert_identical(run.resume(tmp_path))

    def test_pool_crash_then_resume_bit_identical(self, run, tmp_path):
        run.crash_at(tmp_path, iteration=2, executor="pool", n_workers=2)
        run.assert_identical(
            run.resume(tmp_path, executor="pool", n_workers=2)
        )

    def test_cross_backend_resume(self, run, tmp_path):
        """A checkpoint written serially resumes on a pool (the
        fingerprint excludes execution knobs by design)."""
        run.crash_at(tmp_path, iteration=2)
        run.assert_identical(
            run.resume(tmp_path, executor="pool", n_workers=2)
        )

    def test_resume_without_checkpoints_starts_fresh(self, run, tmp_path):
        run.assert_identical(run.resume(tmp_path / "empty"))

    def test_checkpoint_every_skips_iterations(self, run, tmp_path):
        params = PicassoParams(
            checkpoint_dir=str(tmp_path), checkpoint_every=2
        )
        result = Picasso(params=params, seed=7).color(run.ps)
        run.assert_identical(result)
        for name in os.listdir(tmp_path):
            it = int(name[len("picasso-it") : -len(".ckpt")])
            assert it % 2 == 0

    def test_checkpointing_does_not_perturb_result(self, run, tmp_path):
        params = PicassoParams(checkpoint_dir=str(tmp_path))
        run.assert_identical(Picasso(params=params, seed=7).color(run.ps))

    def test_mismatched_config_refuses_resume(self, run, tmp_path):
        run.crash_at(tmp_path, iteration=2)
        params = PicassoParams(
            checkpoint_dir=str(tmp_path), resume=True, alpha=3.0
        )
        with pytest.raises(CheckpointError, match="refusing to mix"):
            Picasso(params=params, seed=7).color(run.ps)


class TestParamsValidation:
    def test_resume_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            PicassoParams(resume=True)

    def test_checkpoint_every_positive(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            PicassoParams(checkpoint_dir="/tmp/x", checkpoint_every=0)

    def test_bad_failover_spec(self):
        with pytest.raises(ValueError, match="unknown failover"):
            PicassoParams(failover="teleport")

    def test_negative_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            PicassoParams(max_retries=-1)
