"""Results must not depend on the BLAS kernel.

``OPENBLAS_CORETYPE`` makes OpenBLAS run another of its kernels for the
same wheels, which sums and blocks differently.  The acceptance module, the
Schur oracle tests (M and H are summed by the BLAS symmetric rank-k update,
so their rounding is the kernel's), the test that forming K a chunk of
rows at a time changes no bit of M and H (each chunk goes through the
kernel's batched matrix products), the mixed-dimension solve (whose
bordered stacks go through batched LAPACK calls, which take other kernel
paths per core type), the tests of equality pairs compiled as ideals,
``test_moment.py -k "equality or point"`` (among them
``test_equality_pairs_compile_as_ideals_only_with_coprime_leads`` and
``test_lower_level_sdp_compiles_the_arc_equality_in_the_quotient``, whose
SDPs live in the quotient ring on standard monomials, and the point-set
tests: the greedy point selection factors B B^T by BLAS, and must pick
the same well-conditioned points under every kernel, which a digest of
the point sets checks against the default kernel's), the compilers
against their per-entry reference (``test_compile.py``: every compile sum
is a plain numpy sum in a fixed order, so an SDP that went through a BLAS
product would differ from the reference on some kernel), extraction
against its per-monomial reference (``test_extract_reference.py``: the
moment matrices, multiplication matrices, Vandermonde matrix and
reconstruction are copies and elementwise products and sums, so an
extraction that went through a BLAS product or took another BLAS path
would differ from the reference), the tests of the exact lower-level
oracles of ``Interval.minimum`` and ``QuadraticSet.minimum`` (18 tests,
``test_certify.py -k exact_lower_level``:
``np.roots`` and ``eigh`` take kernel-dependent LAPACK paths, and the
oracles' tie and hard-case tests compare their results with thresholds),
the grid audits and the image export (``test_multiobj.py -k "audit or
grid or sweep"``: the y-sweep is a BLAS product over chunks whose row
count depends on the number of points, and the tests hold its mask and
verdicts to per-point references) and the general-route demo (whose
lower-level moment SDP runs to 1e-9) are
run in subprocesses under kernels other than the one OpenBLAS picks on a
recent x86-64 CPU.  The README gives the command for the whole suite.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# kernel -> the CPU flag its instructions need
KERNELS = {"Haswell": "avx2", "Sandybridge": "avx"}
POINTS_DIGEST = ("import hashlib; from fsipp import moment; h = hashlib.sha256(); "
                 "[h.update(a.tobytes()) for m in (1, 2, 3) for k in range(1, 7) "
                 "for r in (1.0, 2.0) for a in moment._points(m, k, r)]; "
                 "print(h.hexdigest())")


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OpenBLAS x86-64 kernels")
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_acceptance_and_general_route_under_kernel(kernel, tmp_path):
    if KERNELS[kernel] not in _cpu_flags():
        pytest.skip(f"the CPU lacks {KERNELS[kernel]}")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    sdp_tests = str(ROOT / "tests" / "test_sdp.py")
    runs = [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / "test_acceptance.py"),
             sdp_tests + "::test_schur_over_touched_rows_equals_the_full_row_formula",
             sdp_tests + "::test_lmi_schur_equals_the_dense_formula",
             sdp_tests + "::test_schur_chunks_change_no_bit",
             sdp_tests + "::test_mixed_dimensions_stack_once_per_kind"],
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / "test_moment.py"), "-k", "equality or point"],
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / "test_compile.py"),
             str(ROOT / "tests" / "test_extract_reference.py")],
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / "test_certify.py"), "-k",
             "exact_lower_level"],
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests" / "test_multiobj.py"), "-k",
             "audit or grid or sweep"],
            [sys.executable, str(ROOT / "demos" / "03_general_route.py")]]
    for cmd in runs:
        done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    default = {k: v for k, v in env.items() if k != "OPENBLAS_CORETYPE"}
    digests = [subprocess.run([sys.executable, "-c", POINTS_DIGEST], cwd=tmp_path,
                              env=e, capture_output=True, text=True,
                              timeout=300).stdout for e in (env, default)]
    assert digests[0] == digests[1] != ""
