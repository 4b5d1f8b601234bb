#!/usr/bin/env python3
"""Pin the bytes of `sz14 compress` streams and their decodes against sha256 sums.

The codec's fast paths promise streams byte-identical to the reference
walk, release after release, and decodes byte-identical to the decoder
that recorded them.  This script generates 1D/2D/3D fields with
integer-only arithmetic (no libm, so every platform builds the same
inputs), compresses each through the CLI under a fixed set of options, and
compares the sha256 of every stream and of its `sz14 decompress` output
with the table in golden_streams.json.  It also archives the cube in
8x16x16 blocks and pins three region extracts that cut blocks partway (the
archive's corner-decode path; the CLI reader has no block cache).

    python3 tools/golden_streams.py --sz14 build/sz14            # check
    python3 tools/golden_streams.py --sz14 build/sz14 --record   # rewrite

Exit status: 0 when every hash matches, 1 on a mismatch or a missing
entry, 2 when the CLI fails.  Record only from a build whose streams and
decodes are known good: the table is the format's contract, not a snapshot
of HEAD.
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


REGIONS = (  # (origin, shape) in the 20x30x40 cube, blocks 8x16x16
    ("0x0x0", "5x7x9"),
    ("3x5x7", "10x20x25"),
    ("12x14x30", "8x16x10"),
)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


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

    def sz14(*argv):
        cmd = [args.sz14] + list(argv)
        run = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print("error: %s: %s" % (" ".join(cmd), run.stderr.strip()),
                  file=sys.stderr)
        return run.returncode == 0

    def pin(key, path):
        nonlocal bad
        digest = sha256_file(path)
        got[key] = digest
        if not args.record:
            ok = want.get(key) == digest
            bad += not ok
            print("%-8s %s %s" % ("ok" if ok else "MISMATCH", digest[:16],
                                  key))

    with tempfile.TemporaryDirectory() as tmp:
        for seed, (name, dims) in enumerate(FIELDS.items(), start=1):
            for dtype in ("f32", "f64"):
                write_field(os.path.join(tmp, "%s.%s" % (name, dtype)), dims,
                            dtype, seed)
        dst = os.path.join(tmp, "out.sz")
        raw = os.path.join(tmp, "out.raw")
        for name, dtype, opts in cases():
            src = os.path.join(tmp, "%s.%s" % (name, dtype))
            if not sz14("compress", "-i", src, "-o", dst, "-d",
                        "x".join(map(str, FIELDS[name])), "--dtype", dtype,
                        *opts):
                return 2
            key = case_key(name, dtype, opts)
            pin(key, dst)
            if not sz14("decompress", "-i", dst, "-o", raw):
                return 2
            pin("decompress " + key, raw)
        sza = os.path.join(tmp, "cube.sza")
        archive_opts = ["--codec", "sz14", "--rel", "1e-4", "--block",
                        "8x16x16"]
        if not sz14("archive", "create", "-o", sza, "--field",
                    "v=%s:%s" % (os.path.join(tmp, "cube.f32"),
                                 "x".join(map(str, FIELDS["cube"]))),
                    *archive_opts):
            return 2
        for origin, shape in REGIONS:
            if not sz14("archive", "extract", "-i", sza, "-f", "v", "-o",
                        raw, "--origin", origin, "--shape", shape):
                return 2
            pin(" ".join(["extract cube f32"] + archive_opts +
                         ["--origin", origin, "--shape", shape]), raw)
    if args.record:
        with open(TABLE, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded %d hashes in %s" % (len(got), TABLE))
        return 0
    missing = sorted(set(want) - set(got))
    for key in missing:
        print("MISSING  %s" % key)
    print("%d of %d streams and decodes match" % (len(got) - bad,
                                                  len(want)))
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
