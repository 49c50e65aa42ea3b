"""The four benchmark workloads.

Each workload is a closed loop with one caller: operation i is generated from
(seed, i) outside the timed region, then handed to the library, and the next
operation starts only when the previous one has returned.  Every workload
follows a fixed schedule of operation classes that repeats with a short
period, so the share of each class (and therefore the median and the 90th
percentile) is the same for every seed; the seed only changes the numbers
inside each class.

Library functions are always looked up through their module at call time,
so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil

import numpy as np

# import_module, because the package namespace rebinds the name
# metric_projection to the function of that name
cli = importlib.import_module("proxilift.cli_reports")
cs = importlib.import_module("proxilift.core_spaces")
mp = importlib.import_module("proxilift.metric_projection")
ql = importlib.import_module("proxilift.quotient_lifting")
se = importlib.import_module("proxilift.selection_engine")

import oracles as orc

NORMS = {"linf": cs.Norm.SUP, "l1": cs.Norm.SUM}


def _rng(seed: int, wid: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, wid, *path])


def _dense(rng, n: int, k: int) -> np.ndarray:
    """Entries of magnitude 0.2..2 with random signs, two decimals."""
    return np.round(rng.uniform(0.2, 2.0, (n, k)) * rng.choice([-1.0, 1.0], (n, k)), 2)


def _subspace(space, make_basis):
    """Subspace from a basis generator, redrawing until the basis has full
    rank (random draws make a retry rare)."""
    while True:
        try:
            return cs.Subspace(space, make_basis())
        except cs.RankDeficientBasis:
            continue


class Workload:
    name = ""
    wid = 0
    # operations per second of --seconds run by each pass of a traced run
    trace_rate = 1.0
    # runs stop only after whole periods of the schedule, following the
    # first `prefix` operations, so every run has the same composition
    prefix = 0
    period = 1

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def make_op(self, state, i: int):
        raise NotImplementedError

    def run_op(self, state, op):
        raise NotImplementedError

    def check(self, state, op, out, i: int):
        """Checks that need only numpy and the output itself, run right
        after the operation (outside the timed region).  None when the
        output is correct, else a message."""
        raise NotImplementedError

    def reference_payload(self, state, op, out, i: int):
        """The little data a reference-LP check of this operation needs, or
        None.  Only these payloads are kept until the loop ends, so peak
        memory does not grow with the number of operations."""
        return None

    def check_reference(self, state, payload):
        """Compare a kept payload with the reference LP; None or a message."""
        return None

    def label(self, out):
        """A category of the output that the run tallies (None: no tally)."""
        return None

    def reuse_key(self, op):
        """Identity of the subspace (or closed set) an operation works on."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# project-stream: the read path


class ProjectStream(Workload):
    """Queries against eight fixed polyhedral subspaces.  Three have closed
    forms (two spans, one hyperplane), five take the LP route.  Per period
    of 20 slots: 11 distance, 6 metric_projection (with face probing),
    3 in_metric_complement, half of the latter on points built to lie in
    the metric complement."""

    name = "project-stream"
    wid = 1
    trace_rate = 100.0
    SHAPES = (
        ("linf", 3, 1), ("l1", 7, 1), ("linf", 6, 5),
        ("linf", 5, 2), ("l1", 6, 3), ("linf", 8, 4), ("l1", 12, 5), ("linf", 12, 5),
    )
    KINDS = "DDPDCPDDPDCDPDDPCDDP"
    period = len(SHAPES) * len(KINDS)

    def setup(self, seed, workdir):
        rng = _rng(seed, self.wid, 0)
        subs = []
        for kind, n, k in self.SHAPES:
            space = cs.Space(n, NORMS[kind])
            sub = _subspace(space, lambda: _dense(rng, n, k))
            vt = np.linalg.svd(sub.basis.T)[2]
            subs.append({"kind": kind, "X": space, "J": sub, "B": sub.basis,
                         "null": vt[k:].T})
        return {"seed": seed, "subs": subs}

    def make_op(self, state, i):
        s = i % len(self.SHAPES)
        kind = self.KINDS[(i // len(self.SHAPES)) % len(self.KINDS)]
        sub = state["subs"][s]
        rng = _rng(state["seed"], self.wid, 1, i)
        n = sub["X"].dim
        in_j0 = kind == "C" and rng.random() < 0.5
        if in_j0:
            # x attains its norm on a functional that annihilates J, so
            # ||x|| <= dist(x, J) and x lies in the metric complement
            f = sub["null"] @ rng.standard_normal(sub["null"].shape[1])
            t = rng.uniform(0.5, 3.0)
            if sub["kind"] == "linf":
                x = t * np.sign(f)
                small = np.abs(f) <= 1e-9 * np.max(np.abs(f))
                x[small] = rng.uniform(-t, t, int(small.sum()))
            else:
                j = int(np.argmax(np.abs(f)))
                x = np.zeros(n)
                x[j] = t * np.sign(f[j])
        else:
            x = 2.0 * rng.standard_normal(n)
        return s, kind, x, in_j0

    def run_op(self, state, op):
        s, kind, x, _ = op
        sub = state["subs"][s]
        if kind == "D":
            return mp.distance(sub["X"], sub["J"], x)
        if kind == "P":
            return mp.metric_projection(sub["X"], sub["J"], x)
        return mp.in_metric_complement(sub["X"], sub["J"], x)

    def check(self, state, op, out, i):
        s, kind, x, in_j0 = op
        sub = state["subs"][s]
        if kind == "P":
            rep = out.representative
            if not orc.in_span(sub["B"], rep):
                return "nearest point is not in J"
            if not orc.close(orc.vec_norm(sub["kind"], x - rep), out.distance, 1e-9):
                return "||x - nearest point|| differs from the distance"
            if out.is_singleton != (out.face_dim == 0) or not 0 <= out.face_dim <= sub["J"].k:
                return f"inconsistent face dimension {out.face_dim}"
        elif kind == "C" and in_j0 and out is not True:
            return "point built inside the metric complement reported outside"
        return None

    def reference_payload(self, state, op, out, i):
        if i % 11 and i % 397:
            return None
        s, kind, x, in_j0 = op
        return s, kind, x, in_j0, out.distance if kind == "P" else out, i

    def check_reference(self, state, payload):
        s, kind, x, in_j0, out, i = payload
        sub = state["subs"][s]
        nk, b = sub["kind"], sub["B"]
        d_ref, coef = orc.lp_distance(nk, b, x)
        if kind != "C" and not orc.close(out, d_ref, 1e-7):
            return f"distance {out!r} differs from the reference LP {d_ref!r}"
        if kind == "C" and not in_j0:
            gap = orc.vec_norm(nk, x) - d_ref
            if gap > 1e-6 * (1.0 + d_ref) and out is not False:
                return "point outside the metric complement reported inside"
        if kind == "D" and b.shape[1] <= 3 and i % 397 == 0:
            radius = 1.25 * float(np.max(np.abs(coef))) + 0.5
            steps = {1: 20001, 2: 801, 3: 101}[b.shape[1]]
            upper = cs.brute_distance_oracle(sub["X"], sub["J"], x, radius, steps)
            h = 2.0 * radius / (steps - 1)
            slack = 0.5 * h * sum(orc.vec_norm(nk, b[:, j]) for j in range(b.shape[1]))
            if out > upper + 1e-9 * (1.0 + out) or upper > out + slack + 1e-9:
                return f"distance {out!r} outside the grid-oracle band [.., {upper!r}]"
        return None

    def reuse_key(self, op):
        return op[0]


# ---------------------------------------------------------------------------
# analyze-corpus: full analysis reports, no subspace repeats

# Budgets pinned to the documented defaults, so that a changed library
# default cannot pass for a speed-up.
ANALYZE_CONFIG = dict(eps_eq=1e-9, eps_rank=1e-10, sphere_samples=4096, seed=42,
                      chebyshev_samples=4096, deutsch_budget=512, witness_budget=256)


class AnalyzeCorpus(Workload):
    """One analysis report per distinct (X, J), n = 2..4.  The first three
    operations are the documented instances linf:2 (1,2), linf:2 (1,1) and
    linf:3 (1,1,1); then a period of 20 slots: 8 linf:3 spans with one zero
    coordinate and 6 linf:3 planes containing a coordinate axis (both fail
    the Chebyshev test on an early candidate), 5 dense subspaces that pass
    it over the full sample budget (l1:2, linf:2, l1:3 k=1, l1:3 k=2,
    linf:3 k=1, one of each), and 1 linf:4 span with two zero coordinates,
    whose Deutsch search certifies a selection by sampled verification."""

    name = "analyze-corpus"
    wid = 2
    trace_rate = 2.0
    FIXED = (([1.0, 2.0],), ([1.0, 1.0],), ([1.0, 1.0, 1.0],))
    FIXED_QLP = ("HOLDS", "HOLDS", "FAILS_WITH_WITNESS")
    prefix = len(FIXED)
    SLOTS = ("S3", "P3", "C", "S3", "P3", "S3", "C", "P3", "S3", "C",
             "S3", "P3", "N4", "S3", "C", "P3", "S3", "C", "S3", "P3")
    period = len(SLOTS)
    C_SHAPES = (("l1", 2, 1), ("linf", 2, 1), ("l1", 3, 1), ("l1", 3, 2), ("linf", 3, 1))

    def setup(self, seed, workdir):
        return {"seed": seed, "config": cli.RunConfig(**ANALYZE_CONFIG)}

    def make_op(self, state, i):
        if i < self.prefix:
            vecs = self.FIXED[i]
            space = cs.Space(len(vecs[0]), cs.Norm.SUP)
            return "linf", space, cs.Subspace(space, [np.array(v) for v in vecs]), i
        j = i - self.prefix
        slot = self.SLOTS[j % self.period]
        rng = _rng(state["seed"], self.wid, 1, i)
        if slot == "C":
            kind, n, k = self.C_SHAPES[self.SLOTS[: j % self.period].count("C")]
            make = lambda: _dense(rng, n, k)  # noqa: E731
        elif slot == "P3":
            kind, n, k = "linf", 3, 2

            def make():
                # a coordinate axis plus a vector vanishing on that coordinate
                z = int(rng.integers(3))
                b = np.zeros((3, 2))
                b[z, 0] = _dense(rng, 1, 1)[0, 0]
                b[:, 1] = _dense(rng, 3, 1)[:, 0]
                b[z, 1] = 0.0
                return b
        else:
            # S3: one zero coordinate of three; N4: two of four, which the
            # Deutsch search certifies by sampled verification
            kind, n, k = "linf", {"S3": 3, "N4": 4}[slot], 1
            zeros = {"S3": 1, "N4": 2}[slot]

            def make():
                b = _dense(rng, n, 1)
                b[rng.choice(n, zeros, replace=False), 0] = 0.0
                return b
        space = cs.Space(n, NORMS[kind])
        return kind, space, _subspace(space, make), None

    def run_op(self, state, op):
        _, space, sub, _ = op
        report = cli.build_analysis_report(space, sub, state["config"])
        return report.qlp, report.to_json()

    def check(self, state, op, out, i):
        kind, space, sub, fixed = op
        qlp, text = out
        data = json.loads(text)
        if data["qlp"] != qlp or qlp not in ("HOLDS", "FAILS_WITH_WITNESS", "INCONCLUSIVE"):
            return f"bad verdict {qlp!r}"
        if not cli.revalidate_report_witnesses(data):
            return "report witnesses fail re-validation"
        witnesses = data["witnesses"]
        if data["chebyshev"]["verdict"] == "NO" and "chebyshev_face" not in witnesses:
            return "Chebyshev verdict NO without a witness"
        if qlp == "FAILS_WITH_WITNESS" and "nonlinearity" not in witnesses:
            return "failure verdict without a nonlinearity witness"
        if fixed is not None:
            if qlp != self.FIXED_QLP[fixed]:
                return f"documented instance {fixed} gave {qlp}"
            if fixed == 2 and witnesses["nonlinearity"]["pfg"] != [-0.5, -0.5, -0.5]:
                return "linf:3 (1,1,1) witness differs from the documented one"
        if qlp == "HOLDS":
            p = np.asarray(data["selection"]["matrix"], dtype=float)
            for x in self._sample_points(state, space.dim, i):
                if not orc.in_span(sub.basis, p @ x):
                    return "selection maps outside J"
        return None

    def _sample_points(self, state, n, i):
        rng = _rng(state["seed"], self.wid, 2, i)
        return [rng.standard_normal(n) for _ in range(5)]

    def reference_payload(self, state, op, out, i):
        qlp, text = out
        if qlp != "HOLDS":
            return None
        p = np.asarray(json.loads(text)["selection"]["matrix"], dtype=float)
        return op[0], op[2].basis, p, i

    def check_reference(self, state, payload):
        kind, b, p, i = payload
        for x in self._sample_points(state, b.shape[0], i):
            d_ref = orc.lp_distance(kind, b, x)[0]
            if not orc.close(orc.vec_norm(kind, x - p @ x), d_ref, 1e-7):
                return "selection misses a nearest point on a sampled point"
        return None

    def label(self, out):
        return out[0]

    def reuse_key(self, op):
        return op[0], op[2].basis.tobytes()


# ---------------------------------------------------------------------------
# lift-batch: norm-preserving lifts against certificates made at set-up


class LiftBatch(Workload):
    """Nine subspaces, n = 2..6, certified at set-up; four are coordinate
    max-summands of sup-norm spaces and one (linf:4, k = 2) puts quotient
    norms on the LP route.  Per period of 20 slots: 14 lift_operator,
    3 lift_from_l1 through quotient_map, 2 duality_lift (max-summands only,
    else lift_operator), 1 iso_from_selection -> selection_from_lift round
    trip (n <= 3 only, else lift_operator).  Operators have domain dimension
    1..5 under the sup or sum norm."""

    name = "lift-batch"
    wid = 3
    trace_rate = 80.0
    SUBS = (
        ("linf", 2, "dense", 1), ("linf", 3, "coord", 2), ("l1", 3, "dense", 2),
        ("linf", 3, "coord", 1), ("l1", 4, "dense", 3), ("linf", 5, "dense", 4),
        ("linf", 6, "coord", 5), ("l1", 6, "dense", 5), ("linf", 4, "coord", 2),
    )
    KINDS = "LLFLULLLFLRLLULLFLLL"
    period = len(SUBS) * len(KINDS)

    def setup(self, seed, workdir):
        rng = _rng(seed, self.wid, 0)
        subs = []
        for kind, n, shape, k in self.SUBS:
            space = cs.Space(n, NORMS[kind])
            if shape == "coord":
                idx = sorted(rng.choice(n, k, replace=False).tolist())
                basis = np.eye(n)[:, idx] * np.round(rng.uniform(0.5, 2.0, k), 2)
                sub = cs.Subspace(space, basis)
            else:
                sub = _subspace(space, lambda: _dense(rng, n, k))
            cert = se.find_linear_selection(space, sub)
            if not (isinstance(cert, se.SelectionCertificate) and cert.certified):
                raise RuntimeError(f"set-up could not certify {kind}:{n} k={k}")
            subs.append({"kind": kind, "X": space, "J": sub, "B": sub.basis,
                         "cert": cert, "Q": ql.QuotientSpace.create(space, sub),
                         "summand": shape == "coord" and kind == "linf"})
        return {"seed": seed, "subs": subs}

    def make_op(self, state, i):
        s = i % len(self.SUBS)
        sub = state["subs"][s]
        kind = self.KINDS[(i // len(self.SUBS)) % len(self.KINDS)]
        n = sub["X"].dim
        if (kind == "U" and not sub["summand"]) or (kind == "R" and n > 3):
            kind = "L"
        if kind == "R":
            return s, kind, None, None
        rng = _rng(state["seed"], self.wid, 1, i)
        m = int(rng.integers(1, 6))
        dom_kind = "l1" if kind == "F" or rng.random() < 0.5 else "linf"
        mat = np.round(rng.uniform(-2.0, 2.0, (n, m)), 3)
        return s, kind, cs.LinearMap(mat, cs.Space(m, NORMS[dom_kind]), sub["Q"]), dom_kind

    def run_op(self, state, op):
        s, kind, op_s, _ = op
        sub = state["subs"][s]
        if kind == "L":
            return ql.lift_operator(op_s, sub["cert"])
        if kind == "U":
            return ql.duality_lift(op_s)
        if kind == "F":
            return ql.lift_from_l1(op_s, ql.quotient_map(sub["Q"]))
        psi = ql.iso_from_selection(sub["Q"], sub["cert"])
        return ql.selection_from_lift(sub["Q"], psi)

    def check(self, state, op, out, i):
        s, kind, op_s, dom_kind = op
        sub = state["subs"][s]
        nk, b = sub["kind"], sub["B"]
        if kind == "R":
            if not out.certified:
                return "round-trip selection carries violations"
            if float(np.max(np.abs(out.p.matrix - sub["cert"].p.matrix))) > 1e-12:
                return "round trip does not return the original selection"
            return None
        s_mat = op_s.matrix
        t_mat = out.matrix if kind == "F" else out.T.matrix
        if not orc.in_span(b, t_mat - s_mat):
            return "lift does not compose to S"
        if kind == "F":
            return None
        if not (out.composition_ok and out.norm_preserved):
            return "lift report flags a failure"
        n_t = orc.operator_norm_to_space(dom_kind, nk, t_mat)
        if not (orc.close(n_t, out.norm_T, 1e-9) and orc.close(n_t, out.norm_S, 1e-9)):
            return f"||T|| = {n_t!r} but the report says {out.norm_T!r} / {out.norm_S!r}"
        if kind == "U":
            rows = np.flatnonzero(np.any(b != 0.0, axis=1))
            if np.any(t_mat[rows, :] != 0.0):
                return "duality lift leaves J coordinates nonzero"
        return None

    def reference_payload(self, state, op, out, i):
        s, kind, op_s, dom_kind = op
        if kind == "R" and i % 25 == 0:
            return s, kind, out.p.matrix, i
        if kind == "F" and i % 25 == 0:
            return s, kind, op_s.matrix, out.matrix
        if kind in ("L", "U") and i % 125 == 0:
            return s, kind, op_s.matrix, (dom_kind, out.norm_S)
        return None

    def check_reference(self, state, payload):
        s, kind, a, extra = payload
        sub = state["subs"][s]
        nk, b = sub["kind"], sub["B"]
        if kind == "R":
            rng = _rng(state["seed"], self.wid, 2, extra)
            for _ in range(3):
                x = rng.standard_normal(b.shape[0])
                d_ref = orc.lp_distance(nk, b, x)[0]
                if not orc.close(orc.vec_norm(nk, x - a @ x), d_ref, 1e-7):
                    return "round-trip selection misses a nearest point"
        elif kind == "F":
            for c in range(a.shape[1]):
                d_ref = orc.lp_distance(nk, b, a[:, c])[0]
                if not orc.close(orc.vec_norm(nk, extra[:, c]), d_ref, 1e-7):
                    return "basis lift is not a minimum-norm preimage"
        else:
            dom_kind, norm_s = extra
            n_s = orc.operator_norm_to_quotient(dom_kind, nk, b, a)
            if not orc.close(n_s, norm_s, 1e-7):
                return f"||S|| = {n_s!r} by the reference LP, report says {norm_s!r}"
        return None

    def reuse_key(self, op):
        return op[0]

# ---------------------------------------------------------------------------
# grid-select: in-process command-line jobs for the function-space layer


class GridSelect(Workload):
    """cli_reports.main jobs with stdout captured, writing into a per-job
    directory.  Per period of 10 slots: 3 select-c01 on grid 1025, 3 on
    grid 2049 and 1 on grid 4097 (one to three grid-aligned intervals,
    identity or a random polynomial), 1 select-c01-2d on grid 65 over the
    union of an annulus and a rectangle, and 2 on grid 129 over an annulus
    (norm or a constant function).  The median falls among the grid-2049
    jobs and the 90th percentile in the middle of the grid-129 ones."""

    name = "grid-select"
    wid = 4
    trace_rate = 2.0
    SLOTS = "ABFACBEAFB"
    period = len(SLOTS)
    GRID1 = {"A": 1025, "B": 2049, "C": 4097}
    GRID2 = {"E": 65, "F": 129}

    def setup(self, seed, workdir):
        return {"seed": seed, "work": workdir}

    def make_op(self, state, i):
        slot = self.SLOTS[i % self.period]
        rng = _rng(state["seed"], self.wid, 1, i)
        outdir = os.path.join(state["work"], f"op{i}")
        if slot in self.GRID1:
            grid = self.GRID1[slot]
            m = grid - 1
            count = int(rng.integers(1, 4))
            ends = np.sort(rng.choice(m + 1, 2 * count, replace=False))
            pairs = [(int(ends[2 * t]), int(ends[2 * t + 1])) for t in range(count)]
            dspec = ";".join(f"[{a / m!r},{b / m!r}]" for a, b in pairs)
            if rng.random() < 0.3:
                coeffs = None
                fspec = "id"
            else:
                coeffs = np.round(rng.uniform(-2.0, 2.0, int(rng.integers(3, 6))), 3)
                fspec = "poly:" + ",".join(repr(float(c)) for c in coeffs)
            argv = ["select-c01", "--d", dspec, "--f", fspec, "--grid", str(grid),
                    "--out", outdir]
            return {"dim": 1, "argv": argv, "out": outdir, "grid": grid,
                    "pairs": pairs, "coeffs": coeffs}
        grid = self.GRID2[slot]
        lo = round(float(rng.uniform(0.2, 0.5)), 3)
        hi = round(lo + float(rng.uniform(0.1, 0.3)), 3)
        regions = [("annulus", (lo, hi))]
        if slot == "E":
            x0, y0 = (round(float(v), 3) for v in rng.uniform(0.05, 0.5, 2))
            x1, y1 = (round(a + float(w), 3) for a, w in zip((x0, y0), rng.uniform(0.2, 0.45, 2)))
            regions.append(("rect", (x0, x1, y0, y1)))
        dspec = ";".join(f"{name}:" + ",".join(repr(v) for v in vals) for name, vals in regions)
        if rng.random() < 0.5:
            const = None
            fspec = "norm"
        else:
            const = round(float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])), 3)
            fspec = f"const:{const!r}"
        argv = ["select-c01-2d", "--d", dspec, "--f", fspec, "--grid", str(grid),
                "--out", outdir]
        return {"dim": 2, "argv": argv, "out": outdir, "grid": grid,
                "regions": regions, "const": const}

    def run_op(self, state, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        return rc, buf.getvalue()

    def check(self, state, op, out, i):
        try:
            return self._check(op, out)
        finally:
            shutil.rmtree(op["out"], ignore_errors=True)

    def _check(self, op, out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        cert = json.loads(text)
        with open(os.path.join(op["out"], "certificate.json")) as fh:
            if fh.read() != text:
                return "certificate.json differs from the printed certificate"
        cols = {name: np.loadtxt(os.path.join(op["out"], f"{name}.csv"),
                                 delimiter=",", skiprows=1, ndmin=2)
                for name in ("f", "f1", "f_minus_f1")}
        fv, f1v, rv = (cols[name][:, -1] for name in ("f", "f1", "f_minus_f1"))
        g = op["grid"]
        if cert["grid_n"] != g or fv.size != g ** op["dim"]:
            return "wrong grid size"
        if op["dim"] == 1:
            xs = cols["f"][:, 0]
            if np.any(np.abs(xs - np.linspace(0.0, 1.0, g)) > 1e-15):
                return "f.csv is not on the uniform grid"
            want = xs if op["coeffs"] is None else np.polynomial.polynomial.polyval(
                xs, op["coeffs"])
            on_d = np.zeros(g, dtype=bool)
            for a, b in op["pairs"]:
                on_d[a: b + 1] = True
        else:
            xs, ys = cols["f"][:, 0], cols["f"][:, 1]
            want = np.hypot(xs, ys) if op["const"] is None else np.full(xs.size, op["const"])
            on_d = np.zeros(xs.size, dtype=bool)
            for name, vals in op["regions"]:
                if name == "annulus":
                    r = np.hypot(xs, ys)
                    on_d |= (r >= vals[0]) & (r <= vals[1])
                else:
                    on_d |= ((xs >= vals[0]) & (xs <= vals[1])
                             & (ys >= vals[2]) & (ys <= vals[3]))
        if np.any(np.abs(fv - want) > 1e-12 * (1.0 + np.abs(want))):
            return "f.csv does not hold the requested function"
        if not on_d.any():
            return "closed set misses the grid"
        if np.any(f1v[on_d] != 0.0):
            return "selection is not zero on D"
        if np.any(np.abs(rv - (fv - f1v)) > 1e-12 * (1.0 + np.abs(fv))):
            return "f_minus_f1.csv is not f - f1"
        d_sup = float(np.max(np.abs(fv[on_d])))
        r_sup = float(np.max(np.abs(rv)))
        if not orc.close(r_sup, cert["residual_sup_norm"], 1e-12):
            return "certificate residual differs from the CSV"
        if op["dim"] == 1:
            if not (cert["distance_attained"] and orc.close(cert["max_over_d"], d_sup, 1e-12)
                    and orc.close(r_sup, d_sup, 1e-12)):
                return f"residual {r_sup!r} does not attain the D-sup {d_sup!r}"
        else:
            # on D the residual is f itself; off D it interpolates values of f
            # taken on D, within a few grid steps of the D-sup
            if r_sup < d_sup - 1e-12 or r_sup > d_sup + 4.0 / (g - 1):
                return f"residual {r_sup!r} does not attain the D-sup {d_sup!r}"
        return None

    def reuse_key(self, op):
        return op["argv"][2]


WORKLOADS = {w.name: w for w in (ProjectStream, AnalyzeCorpus, LiftBatch, GridSelect)}
