"""Validate the generator against CAVP-style response files.

The package bundles three response files (no-reseed, reseed without
prediction resistance, per-call prediction resistance). Each case pins
the exact ReturnedBits of the SECOND generate call, per the standard
validation flow.

Run:  python3 demos/02_validate_vectors.py
"""

from dataclasses import replace
from importlib import resources

from drbglab import cavp

for name in (
    "hmac_drbg_no_reseed.rsp",
    "hmac_drbg_pr_false.rsp",
    "hmac_drbg_pr_true.rsp",
):
    text = resources.files("drbglab").joinpath(f"vectors/{name}").read_text("ascii")
    parsed = cavp.parse(text)
    # only the SHA-256 groups are runnable; others are reported skipped
    summary = cavp.run_file(parsed, mechanism="SHA-256")
    print(f"{name}: {summary.passed} passed, {summary.failed} failed, "
          f"{summary.skipped} skipped")

# Zoom into one file: per-case records, like `drbglab cavp --report -`.
text = resources.files("drbglab").joinpath(
    "vectors/hmac_drbg_no_reseed.rsp"
).read_text("ascii")
summary = cavp.run_file(cavp.parse(text), mechanism="SHA-256")
print("\nfirst three case records:")
for line in cavp.report_lines(summary)[:3]:
    print(" ", line)

# A failing case reports WHERE the output diverged (first bad octet):
group = next(g for g in cavp.parse(text).groups if g.mechanism == "SHA-256")
case = group.cases[0]
bits = case.returned_bits
tampered = replace(case, returned_bits=bits[:10] + bytes([bits[10] ^ 1]) + bits[11:])
result = cavp.run_case(group, tampered)
print(f"\ntampered octet 10: passed={result.passed} divergence={result.divergence}")

# The parser round-trips: serialize(parse(text)) is canonical, so files
# can be programmatically generated, filtered, or re-emitted.
print(f"\nround-trip stable: {cavp.serialize(cavp.parse(text)) == cavp.serialize(cavp.parse(cavp.serialize(cavp.parse(text))))}")
