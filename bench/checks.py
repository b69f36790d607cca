"""Per-operation correctness checks and the failure tally.

Every check returns a list of problems; an operation with any problem
counts as failed.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from glvq import container

from workloads import DIM, WIDTH


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems) -> bool:
        """Count one operation; returns True when it passed every check."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def archive_problems(data: bytes, wl):
    """Parse an archive and check its geometry against the workload.
    Returns (archive or None, problems)."""
    try:
        archive = container.read_archive(data)
    except container.ArchiveError as e:
        return None, [f"archive does not parse: {e}"]
    problems = []
    if len(archive) != wl.groups:
        problems.append(f"{len(archive)} groups, expected {wl.groups}")
    shapes = {(g.codec.rows, g.codec.cols, g.codec.dim) for g in archive}
    if shapes != {(wl.rows, WIDTH, DIM)}:
        problems.append(f"group shapes {sorted(shapes)}, expected "
                        f"{(wl.rows, WIDTH, DIM)}")
    return archive, problems


def rate_problems(code_bits_per_weight: float, target: float) -> list:
    """The code rate must equal the workload's target exactly."""
    if code_bits_per_weight != target:
        return [f"code bits per weight {code_bits_per_weight:.6g}, "
                f"target {target}"]
    return []


def decode_problems(out_path: Path, expected) -> list:
    """Compare a dequantize output tensor file with the expected float32
    matrix, bit for bit."""
    try:
        manifest = json.loads(out_path.with_suffix(".json").read_text())
        payload = out_path.read_bytes()
    except (OSError, ValueError) as e:
        return [f"output tensor unreadable: {e}"]
    problems = []
    if manifest.get("shape") != list(expected.shape):
        problems.append(f"output shape {manifest.get('shape')}, expected "
                        f"{list(expected.shape)}")
    if payload != expected.astype("<f4").tobytes():
        problems.append("output differs from read_archive().decode_matrix() "
                        "as float32")
    return problems
