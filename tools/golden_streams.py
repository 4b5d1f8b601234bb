#!/usr/bin/env python3
"""Pin the bytes of `sz14 compress` streams against recorded sha256 sums.

The codec's fast paths promise streams byte-identical to the reference
walk, release after release.  This script generates 1D/2D/3D fields with
integer-only arithmetic (no libm, so every platform builds the same
inputs), compresses each through the CLI under a fixed set of options, and
compares every stream's sha256 with the table in golden_streams.json.

    python3 tools/golden_streams.py --sz14 build/sz14            # check
    python3 tools/golden_streams.py --sz14 build/sz14 --record   # rewrite

Exit status: 0 when every stream matches, 1 on a mismatch or a missing
entry, 2 when the CLI fails.  Record only from a build whose streams are
known good: the table is the format's contract, not a snapshot of HEAD.
"""

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "golden_streams.json")

FIELDS = {  # name -> dims
    "line": (30000,),
    "plane": (150, 200),
    "cube": (20, 30, 40),
}


def lcg(seed):
    """64-bit LCG (Knuth's MMIX constants); yields 31-bit draws."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def tri(x, period, amp):
    """Integer triangle wave in [0, amp]."""
    m = x % period
    return amp * (period - abs(2 * m - period)) // period


def numerators(dims, seed):
    """Smooth integer field with noise and rare spikes, |v| < 2^23."""
    rng = lcg(seed)
    count = 1
    for d in dims:
        count *= d
    strides = [1] * len(dims)
    for a in range(len(dims) - 2, -1, -1):
        strides[a] = strides[a + 1] * dims[a + 1]
    out = []
    for i in range(count):
        v = 0
        for a, d in enumerate(dims):
            c = (i // strides[a]) % d
            v += tri(c * (a + 3), 97 + 31 * a, 1 << 14)
        r = next(rng)
        v += r % 65 - 32
        if r % 509 == 0:
            v += 1 << 21  # spike: an unpredictable point
        out.append(v)
    return out


def write_field(path, dims, dtype, seed):
    nums = numerators(dims, seed)
    rng = lcg(seed + 1)
    if dtype == "f32":
        # num / 2^12 with |num| < 2^24 is exact in binary32.
        data = struct.pack("<%df" % len(nums), *[n / 4096 for n in nums])
    else:
        # 20 more low bits keep the numerator below 2^53: exact in binary64.
        vals = [(n * 2**20 + next(rng) % 2**20) / 2**32 for n in nums]
        data = struct.pack("<%dd" % len(vals), *vals)
    with open(path, "wb") as f:
        f.write(data)


def cases():
    for name, dims in FIELDS.items():
        for dtype in ("f32", "f64"):
            for bound in (("--abs", "1e-3"), ("--rel", "1e-4")):
                for layers in ("1", "2"):
                    yield (name, dtype,
                           [bound[0], bound[1], "-n", layers])
    yield ("cube", "f64", ["--rel", "1e-4", "--decorrelate"])


def case_key(name, dtype, args):
    return " ".join([name, dtype] + args)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sz14", required=True, help="path to the sz14 CLI")
    ap.add_argument("--record", action="store_true",
                    help="rewrite golden_streams.json from this build")
    args = ap.parse_args()

    want = {}
    if not args.record:
        with open(TABLE) as f:
            want = json.load(f)
    got = {}
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed, (name, dims) in enumerate(FIELDS.items(), start=1):
            for dtype in ("f32", "f64"):
                write_field(os.path.join(tmp, "%s.%s" % (name, dtype)), dims,
                            dtype, seed)
        for name, dtype, opts in cases():
            src = os.path.join(tmp, "%s.%s" % (name, dtype))
            dst = os.path.join(tmp, "out.sz")
            cmd = [args.sz14, "compress", "-i", src, "-o", dst, "-d",
                   "x".join(map(str, FIELDS[name])), "--dtype", dtype] + opts
            run = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print("error: %s: %s" % (" ".join(cmd), run.stderr.strip()),
                      file=sys.stderr)
                return 2
            with open(dst, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            key = case_key(name, dtype, opts)
            got[key] = digest
            if not args.record:
                ok = want.get(key) == digest
                bad += not ok
                print("%-8s %s %s" % ("ok" if ok else "MISMATCH", digest[:16],
                                      key))
    if args.record:
        with open(TABLE, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded %d streams in %s" % (len(got), TABLE))
        return 0
    missing = sorted(set(want) - set(got))
    for key in missing:
        print("MISSING  %s" % key)
    print("%d of %d streams match" % (len(got) - bad, len(want)))
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
