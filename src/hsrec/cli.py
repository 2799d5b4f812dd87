"""Command-line surface: phantom generation, acquisition simulation,
recovery, evaluation, rendering, and rate sweeps.

Exit codes are a stable scripting contract: 0 success, 2 usage or
validation failure (or a warning that a filter such as -W error escalates),
3 numerical failure (divergence, singular dictionary) or memory exhausted.
Every command is deterministic given its flags, wall-clock timings aside.
"""

import argparse
import csv
import dataclasses
import sys
import warnings

import numpy as np

from . import formats, harness
from .datacube import as_band_pixel_matrix, cube_from_matrix
from .solvers import DivergenceError
from .transforms import (SpectralBasis, check_pow2, learn_spectral_basis,
                         walsh_rows)


def _phantom(args, seed):
    for flag in ("nv", "nh", "ns"):
        check_pow2(getattr(args, flag), "--" + flag)
    formats.check_cube_size(args.nv, args.nh, args.ns)  # before allocating
    return harness.generate_phantom(harness.PhantomSpec(
        args.nv, args.nh, args.ns, n_regions=args.regions,
        n_atoms=args.atoms, seed=seed))


def _cmd_phantom(args):
    formats.write_cube(args.out, _phantom(args, args.seed))
    print(f"wrote {args.out}: {args.nv}x{args.nh}x{args.ns} cube, "
          f"{args.regions} regions")
    return 0


def _cmd_acquire(args):
    meas = harness.acquire_at_rates(formats.read_cube(args.cube), args.rp,
                                    args.rs, args.sigma, args.seed,
                                    q_p=args.qp, q_s=args.qs)
    formats.write_measurements(args.out, meas)
    sp, pp = meas.spectral, meas.spatial
    print(f"wrote {args.out}: {sp.m_s}x{pp.m_p} measurements "
          f"(q_s={sp.q_s}, q_p={pp.q_p}, sigma={args.sigma})")
    return 0


def _write_trace(path, trace):
    columns = {"rel_change": trace.rel_change, "cost": trace.cost}
    if trace.truth_error is not None:
        columns["rel_error"] = trace.truth_error
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", *columns])
        for i, row in enumerate(zip(*columns.values()), start=1):
            writer.writerow([i, *(f"{value:.12e}" for value in row)])


# SolverConfig fields other than the weights settable from `hsrec recover`;
# an omitted flag keeps the method's default.
_CONFIG_FLAGS = ("step_size", "tau", "max_iters")


def _check_grid(truth, grid, other):
    """A ValueError unless the truth cube's shape is grid, which other names."""
    if truth.data.shape != grid:
        raise ValueError("truth cube is {}x{}x{}, {} {}x{}x{}".format(
            *truth.data.shape, other, *grid))


def _cmd_recover(args):
    method = harness.METHODS[args.method]
    for flag in (w for other in harness.METHODS.values() for w in other.weights):
        if flag not in method.weights and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --method {args.method}")
    if args.basis_sample_seed is not None and not args.truth:
        raise ValueError("--basis-sample-seed does not apply without --truth")
    meas = formats.read_measurements(args.meas)
    n_v, n_h, n_s = meas.spatial.n_v, meas.spatial.n_h, meas.spectral.n_s
    x_truth = None
    if args.truth:
        truth_cube = formats.read_cube(args.truth)
        _check_grid(truth_cube, (n_v, n_h, n_s), "measurements describe")
        x_truth = as_band_pixel_matrix(truth_cube)
        basis = learn_spectral_basis(
            harness.sample_training_columns(x_truth, args.basis_sample_seed or 0))
    else:
        basis = SpectralBasis(walsh_rows(n_s))
    config = dataclasses.replace(method.default_config(), **{
        name: getattr(args, name) for name in (*_CONFIG_FLAGS, *method.weights)
        if getattr(args, name) is not None})
    x_hat, trace = method.solve(meas, basis, config, x_truth=x_truth)
    formats.write_cube(args.out, cube_from_matrix(x_hat, n_v, n_h))
    if args.trace:
        _write_trace(args.trace, trace)
    line = (f"{args.method}: {trace.iterations} iterations ({trace.reason}), "
            f"final cost {trace.cost[-1]:.6e}")
    if trace.truth_error is not None:
        line += f", relative error {trace.truth_error[-1]:.6e}"
    print(line)
    return 0


def _cmd_eval(args):
    truth = formats.read_cube(args.truth)
    recovered = formats.read_cube(args.recovered)
    _check_grid(truth, recovered.data.shape, "recovered cube is")
    err = harness.relative_error(as_band_pixel_matrix(truth),
                                 as_band_pixel_matrix(recovered))
    print(f"{err:.6e}")
    return 0


def _cmd_render(args):
    cube = formats.read_cube(args.cube)
    bands = _parse_list(args.bands, int,
                        "bad band {!r} in --bands; expected integers")
    if len(bands) != 3:
        raise ValueError("--bands expects exactly three comma-separated indices")
    channels = []
    for k in bands:
        if not 0 <= k < cube.n_s:
            raise ValueError(f"band index {k} out of range [0, {cube.n_s})")
        frm = cube.data[:, :, k]
        lo, hi = float(frm.min()), float(frm.max())
        if hi > lo:
            channels.append(np.rint((frm - lo) / (hi - lo) * 255).astype(np.uint8))
        else:
            channels.append(np.full((cube.n_v, cube.n_h), 128, dtype=np.uint8))
    image = np.stack(channels, axis=-1)
    with open(args.out, "wb") as fh:
        fh.write(f"P6\n{cube.n_h} {cube.n_v}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
    print(f"wrote {args.out}: {cube.n_h}x{cube.n_v} pixmap from bands {list(bands)}")
    return 0


def _parse_list(text, parse, error):
    """parse(token) for each comma-separated token of text, as a tuple; a
    ValueError with the error format filled in by the first token refused."""
    out = []
    for tok in text.split(","):
        try:
            out.append(parse(tok))
        except ValueError:
            raise ValueError(error.format(tok)) from None
    return tuple(out)


def _rate_pair(tok):
    rp, rs = tok.split(":")  # a ValueError unless exactly two fields
    return float(rp), float(rs)


def _cmd_sweep(args):
    # an omitted flag keeps the ExperimentSpec default; the spec is checked
    # before the cube is read or built
    parsers = {
        "rates": lambda text: _parse_list(
            text, _rate_pair, "bad rate pair {!r}; expected rp:rs"),
        "sigma": float,
        "seeds": lambda text: _parse_list(
            text, int, "bad seed {!r} in --seeds; expected integers")}
    spec = harness.ExperimentSpec(**{
        name: parse(getattr(args, name)) for name, parse in parsers.items()
        if getattr(args, name) is not None})
    cube = (formats.read_cube(args.cube) if args.cube
            else _phantom(args, args.phantom_seed))
    rows = harness.run_experiment(spec, cube)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({**row,
                             "relative_error": f"{row['relative_error']:.12e}",
                             "wall_time_s": f"{row['wall_time_s']:.3f}"})
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hsrec",
        description="hyperspectral datacube recovery from separable "
                    "compressive measurements")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False)  # phantom and sweep
    grid.add_argument("--nv", type=int, default=32)
    grid.add_argument("--nh", type=int, default=32)
    grid.add_argument("--ns", type=int, default=16)
    grid.add_argument("--regions", type=int,
                      default=harness.PhantomSpec.n_regions)
    grid.add_argument("--atoms", type=int, default=harness.PhantomSpec.n_atoms)

    p = sub.add_parser("phantom", parents=[grid],
                       help="generate a synthetic datacube file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=harness.PhantomSpec.seed)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("acquire", help="simulate compressive acquisition")
    p.add_argument("--cube", required=True)
    p.add_argument("--rp", type=float, required=True,
                   help="spatial measurement rate in (0, 1]")
    p.add_argument("--rs", type=float, required=True,
                   help="spectral measurement rate in (0, 1]")
    p.add_argument("--sigma", type=float, default=harness.ExperimentSpec.sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qp", type=int, default=None,
                   help="override the structured spatial row count")
    p.add_argument("--qs", type=int, default=None,
                   help="override the structured spectral row count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_acquire)

    p = sub.add_parser("recover", help="recover a datacube from measurements")
    p.add_argument("--meas", required=True)
    p.add_argument("--method", choices=tuple(harness.METHODS), default="hybrid")
    methods = harness.METHODS.items()  # one flag per weight, shared or not
    for weight in dict.fromkeys(w for _, m in methods for w in m.weights):
        p.add_argument("--" + weight, type=float, help=", ".join(
            f"{name} {m.weights[weight]} weight" for name, m in methods
            if weight in m.weights))
    p.add_argument("--lambda", dest="step_size", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--basis-sample-seed", type=int, default=None)
    p.add_argument("--truth", default=None,
                   help="ground-truth cube: trains the spectral basis and "
                        "adds a rel_error trace column")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="per-iteration CSV path")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("eval", help="print the relative recovery error")
    p.add_argument("--truth", required=True)
    p.add_argument("--recovered", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("render", help="render three bands to a P6 pixmap")
    p.add_argument("--cube", required=True)
    p.add_argument("--bands", required=True,
                   help="comma-separated band indices k_r,k_g,k_b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("sweep", parents=[grid],
                       help="run the two-method rate sweep")
    p.add_argument("--cube", default=None,
                   help="input cube; omit to generate a phantom")
    p.add_argument("--phantom-seed", type=int, default=harness.PhantomSpec.seed)
    p.add_argument("--rates", help='comma-separated pairs "rp:rs,..."')
    p.add_argument("--sigma", type=float)
    p.add_argument("--seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # one line per library warning, without its source location
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's text names the allocation; a bare MemoryError() has none
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    except (ValueError, OSError, Warning) as exc:
        # a Warning arrives here only when a filter escalates it to an error
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
