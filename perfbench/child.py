"""One run process: a closed-loop client of sadnet's public entry points.

Started by ``run.py``, once per session; not meant to be run by hand. It
caps its own address space, generates the seeded inputs unless an earlier
process of the run already did, runs one session of the workload and then
a few setup-only calls, and appends one JSON record per call to
``--results``. A fresh process per session makes each session's first op
cold, as it is for a user who starts ``sadnet`` once per job.

Op boundaries are observed without touching the program: training steps
through the log stream ``train()`` writes to (one line per step), and
evaluation entries through ``open`` audit events on the clean image paths.
With ``--traced`` the process runs with ``tracer.Tracer`` installed and
appends its spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--session", type=int, required=True,
                   help="index of this process's session within the run")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--cap-mb", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--spans", required=True)
    return p.parse_args(argv)


class Recorder:
    """Appends one JSON line per record and syncs it to disk."""

    def __init__(self, path):
        self._fh = open(path, "a", encoding="utf-8")

    def write(self, rec: dict) -> None:
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


class Boundaries:
    """Timestamps op boundaries; the probe (traced runs) runs after the stamp.

    ``marks`` holds ``(end_of_previous_op, start_of_next_op)`` pairs; they
    differ only by the probe's own time.
    """

    def __init__(self, probe=None):
        self.marks: list[tuple[float, float]] = []
        self.lines: list[str] = []
        self.probe = probe
        self.watch: set[str] = set()
        self.audit = True

    def mark(self) -> None:
        t = time.monotonic()
        if self.probe is not None:
            self.probe()
        self.marks.append((t, time.monotonic()))

    # train() log stream protocol
    def write(self, text: str) -> None:
        if text.strip():
            self.lines.append(text)
            self.mark()

    def flush(self) -> None:
        pass

    # sys.addaudithook target
    def on_audit(self, event, args) -> None:
        if event == "open" and self.audit and args[0] in self.watch:
            self.mark()


class Run:
    def __init__(self, args, sadnet, spec, refs):
        self.args = args
        self.sadnet = sadnet
        self.spec = spec
        self.refs = refs
        self.clock = Boundaries()
        sys.addaudithook(self._audit)
        self.tracer = None
        self.probes: list[int] = []
        self.op_meta: list[dict] = []

    def _audit(self, event, args):
        self.clock.on_audit(event, args)

    # -- inputs -----------------------------------------------------------

    def prepare(self) -> None:
        """Generate the run's inputs once; later processes reuse them."""
        import inputs
        wd = self.args.workdir
        marker = os.path.join(wd, "inputs.json")
        if not os.path.exists(marker):
            meta = inputs.generate(wd, self.args.seed, self.spec, self.sadnet)
            with open(marker + ".tmp", "w", encoding="utf-8") as fh:
                json.dump(meta, fh)
            os.replace(marker + ".tmp", marker)
        with open(marker, encoding="utf-8") as fh:
            self.inputs = json.load(fh)
        if self.spec["kind"] == "train":
            self.ckpt_dir = os.path.join(wd, "ckpt")
            self.model_cfg = self.sadnet.model.ModelConfig(
                in_channels=self.spec["in_channels"],
                channels_per_scale=tuple(self.spec["channels"]))

    # -- sessions ---------------------------------------------------------

    def run_session(self, n_ops: int) -> dict:
        """One train()/evaluate() call; n_ops == 0 is a setup-only call."""
        clock = self.clock = Boundaries(self._probe if self.tracer else None)
        if self.tracer is not None:
            # traced runs mark boundaries before the wrapped call opens the file
            clock.audit = False

            def before_open(path, *_args, **_kwargs):
                if path in clock.watch:
                    clock.mark()

            self.tracer.before = {"data.load_image": before_open,
                                  "checkpoint.save_checkpoint": before_open}
        rec = {"type": "session", "planned": n_ops,
               "traced": self.tracer is not None}
        try:
            if self.spec["kind"] == "train":
                self._train(n_ops, rec)
            else:
                self._eval(n_ops, rec)
        except (MemoryError, self.sadnet.errors.DataError,
                self.sadnet.errors.NumericError, OSError) as exc:
            rec.update(failed=max(n_ops, 1), completed=0,
                       error=f"{type(exc).__name__}: {exc}")
            rec.pop("ops", None)
        if self.tracer is not None:
            self._probe()
            rec["retained"] = self.probes
            self.probes = []
        else:
            gc.collect()
        return rec

    def _probe(self) -> None:
        from tracer import garbage_bytes
        self.probes.append(garbage_bytes())

    def _train(self, n_ops: int, rec: dict) -> None:
        sp = self.spec
        training = self.sadnet.training
        final = os.path.join(self.ckpt_dir, "ckpt_final.sadn")
        cfg = training.TrainConfig(
            model=self.model_cfg, batch_size=sp["batch"],
            patch_size=sp["patch"], max_iters=n_ops,
            seed=self.args.seed * 1000 + self.args.session,
            manifest=self.inputs["manifest"], checkpoint_dir=self.ckpt_dir,
            log_interval=1, checkpoint_interval=0)
        clock = self.clock
        clock.watch = {final}
        t_enter = time.monotonic()
        training.train(cfg, log_stream=clock)
        if n_ops == 0:
            # the final checkpoint write is the first thing after setup
            rec.update(setup_s=clock.marks[0][0] - t_enter, ops=[],
                       completed=0, failed=0)
            return
        fields = [line.split("\t") for line in clock.lines]
        losses = [float(f[1]) for f in fields]
        t0 = clock.marks[0][0] - float(fields[0][3])
        starts = [t0] + [m[1] for m in clock.marks[:-1]]
        ends = [m[0] for m in clock.marks]
        # the audit mark of the final checkpoint write is not a step
        starts, ends = starts[:n_ops], ends[:n_ops]
        pixels = sp["batch"] * sp["patch"] ** 2
        failed = self._check_losses(losses, n_ops)
        rec.update(setup_s=t0 - t_enter,
                   ops=[e - s for s, e in zip(starts, ends)],
                   pixels=[pixels] * n_ops, completed=n_ops - failed,
                   failed=failed, losses=losses)
        self._note_ops(rec, starts, ends)

    def _check_losses(self, losses, n_ops) -> int:
        """Failed ops: non-finite losses, and a final loss out of band."""
        lo, hi = self.refs["final_loss"][self.args.workload]
        bad = sum(1 for v in losses if not math.isfinite(v))
        if math.isfinite(losses[-1]) and not lo <= losses[-1] <= hi:
            bad += 1
        return min(bad, n_ops)

    def _eval(self, n_ops: int, rec: dict) -> None:
        training = self.sadnet.training
        pool = [self.sadnet.data.ManifestEntry(*e)
                for e in self.inputs["pool"]]
        entries = [pool[(n_ops * self.args.session + j) % len(pool)]
                   for j in range(n_ops)]
        manifest = os.path.join(self.args.workdir, "session.tsv")
        self.sadnet.data.write_manifest(entries, manifest)
        clock = self.clock
        clock.watch = {e.clean_path for e in entries}
        t_enter = time.monotonic()
        report = training.evaluate(self.inputs["ckpt"], manifest)
        t_exit = time.monotonic()
        marks = clock.marks
        if n_ops == 0:
            rec.update(setup_s=t_exit - t_enter, ops=[], completed=0,
                       failed=0)
            return
        starts = [m[1] for m in marks]
        ends = [m[0] for m in marks[1:]] + [t_exit]
        pixels = [self.inputs["pixels"][e.noisy_path] for e in entries]
        failed, checks = self._check_eval(report)
        rec.update(setup_s=marks[0][0] - t_enter,
                   ops=[e - s for s, e in zip(starts, ends)], pixels=pixels,
                   completed=n_ops - failed, failed=failed, checks=checks)
        self._note_ops(rec, starts, ends)

    def _check_eval(self, report):
        """Per entry: finite, not the input, pinned (anchor) or in band."""
        refs = self.refs["eval"]
        failed = 0
        checks = []
        for name, p, s in zip(report.names, report.psnr_values,
                              report.ssim_values):
            delta = p - self.inputs["noisy_psnr"][name]
            pinned = refs["pinned"].get(name)
            if pinned is not None:
                near = (abs(p - pinned[0]) <= refs["psnr_tol_db"]
                        and abs(s - pinned[1]) <= refs["ssim_tol"])
            else:
                near = (refs["psnr_band"][0] <= p <= refs["psnr_band"][1]
                        and refs["ssim_band"][0] <= s <= refs["ssim_band"][1])
            ok = (math.isfinite(p) and math.isfinite(s) and near
                  and abs(delta) >= refs["min_abs_delta_db"])
            checks.append([name, p, s, delta, ok])
            failed += not ok
        return failed, checks

    def _note_ops(self, rec, starts, ends) -> None:
        for i, (s, e) in enumerate(zip(starts, ends)):
            self.op_meta.append({"pos": i,
                                 "start": s, "end": e, "kind": self.spec["kind"],
                                 "traced": rec["traced"]})


def sgemm_ceiling(np) -> float:
    """Best-of-8 float32 1024^3 matmul, in GMAC/s."""
    n = 1024
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    best = math.inf
    for _ in range(8):
        t = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t)
    return n ** 3 / best / 1e9


def blas_info(np) -> dict:
    info = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    args = _parse(argv)
    cap = args.cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from workloads import SETUP_REPEATS, WORKLOADS
    import numpy as np
    import sadnet
    import sadnet.checkpoint
    import sadnet.errors
    import tracer as tr

    modules = {name: sys.modules[f"sadnet.{name}"]
               for name in ("tensor", "deform", "model", "optim", "data",
                            "checkpoint", "metrics", "training")}
    spec = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    rec_out = Recorder(args.results)
    run = Run(args, sadnet, spec, refs)
    run.prepare()
    if args.session == 0:
        info = blas_info(np)
        info.update(threads=os.environ.get("OPENBLAS_NUM_THREADS"),
                    nproc=len(os.sched_getaffinity(0)), cap_mb=args.cap_mb,
                    sgemm_gmac_s=sgemm_ceiling(np))
        rec_out.write({"type": "start", "info": info})
    if args.traced:
        # automatic collection pauses so each op's cyclic garbage is found
        # by the probe at the next op boundary
        gc.disable()
        run.tracer = tr.Tracer()
        run.tracer.install(modules)
    sessions = []
    for n_ops in [spec["ops_per_session"]] + [0] * SETUP_REPEATS:
        rec_out.write({"type": "begin", "t": time.monotonic(),
                       "planned": n_ops})
        sessions.append(run.run_session(n_ops))
        rec_out.write(sessions[-1])
    if run.tracer is not None:
        run.tracer.uninstall()
        gc.enable()
        import layers
        sums = layers.summarize(run.tracer.spans, run.op_meta)
        with open(args.spans, "a", encoding="utf-8") as fh:
            run.tracer.dump(fh, args.session)
        rec_out.write({"type": "layers", "sums": sums,
                       "mac_check": layers.mac_check(run.tracer.spans,
                                                     modules)})
    rec_out.write({"type": "end", "wrapped": tr.wrapped_objects(modules)})
    rec_out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
