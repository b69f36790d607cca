"""Optimizer-free quantization of a weight tensor into a .glvq archive.

Each column group gets its initial codec (``init_codec``) and Babai codes
(``quantize_columns``) with no fitting, then ``write_archive`` serializes
the records.  This is how the decode_large workload builds its archive,
because fitting 32 groups of 4096 x 128 would take minutes.

    PYTHONPATH=src python3 bench/build_archive.py w.f32 --bits 2,1,3,... \
        --out model.glvq
"""

import argparse
import sys

from glvq import codebook, companding, container, pipeline

from workloads import DIM, WIDTH


def build_records(weights, bits):
    """(codec, codes) per WIDTH-column group, coded at the given widths."""
    spans = pipeline.partition_columns(weights.shape[1], WIDTH)
    if len(spans) != len(bits):
        raise ValueError(f"{len(bits)} widths for {len(spans)} groups")
    records = []
    for (a, b), group_bits in zip(spans, bits):
        group = weights[:, a:b]
        codec = codebook.init_codec(group, DIM, group_bits)
        latent, _ = codebook.reshape_group(group, DIM)
        latent /= codec.scale
        if codec.mu > 0.0:
            latent = companding.compand(latent, codec.mu)
        records.append((codec, codebook.quantize_columns(latent, codec)))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("weights", help="weight tensor (.f32 + .json manifest)")
    parser.add_argument("--bits", required=True,
                        help="comma-separated code width of each group")
    parser.add_argument("--out", required=True, help="output .glvq path")
    args = parser.parse_args(argv)
    bits = [int(b) for b in args.bits.split(",")]
    weights = container.read_tensor_file(args.weights)
    data = container.write_archive(build_records(weights, bits))
    container.atomic_write_bytes(args.out, data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
