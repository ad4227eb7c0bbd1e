#!/usr/bin/env bash
# Runs every project linter (registry, determinism contract, hot-path
# discipline, lock discipline) plus its self-test, then merges the four
# SARIF reports into one multi-run lint.sarif for code-scanning upload.
# This is exactly what the CI static-analysis job executes; run it
# locally before pushing a change that touches src/ or tools/.
#
# usage: tools/run_lints.sh [--build-dir DIR] [--root DIR] [--out FILE]
#   --build-dir  where the linter binaries live (default: ./build)
#   --root       source tree to scan (default: this script's repo)
#   --out        merged SARIF path (default: <build-dir>/lint.sarif)
#
# Every linter runs even after one fails, so a single invocation shows
# the full picture; the exit code is non-zero if anything failed.
set -u

root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="build"
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="$2"; shift 2 ;;
    --root) root="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    -h|--help) sed -n '2,14p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "run_lints.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
out="${out:-${build_dir}/lint.sarif}"
bin="${build_dir}/tools"

for tool in opprentice_lint opprentice_check opprentice_hotpath opprentice_locks; do
  if [[ ! -x "${bin}/${tool}" ]]; then
    echo "run_lints.sh: ${bin}/${tool} not built (cmake --build ${build_dir} --target ${tool})" >&2
    exit 2
  fi
done

sarif_dir="${build_dir}/sarif"
mkdir -p "${sarif_dir}"
failed=0
run() {
  echo "== $*"
  "$@" || { echo "== FAILED ($*)" >&2; failed=1; }
}

run "${bin}/opprentice_lint" --verbose
run "${bin}/opprentice_lint" --self-test
run "${bin}/opprentice_check" --root "${root}" --verbose
run "${bin}/opprentice_check" --self-test
run "${bin}/opprentice_hotpath" --root "${root}" --verbose --min-roots 19
run "${bin}/opprentice_hotpath" --self-test
run "${bin}/opprentice_locks" --root "${root}" --verbose --min-locks 14
run "${bin}/opprentice_locks" --self-test

# SARIF export is unconditional (findings are what upload is for); a
# linter that cannot even produce a report fails the script above.
"${bin}/opprentice_lint" --sarif > "${sarif_dir}/lint.sarif" || failed=1
"${bin}/opprentice_check" --root "${root}" --sarif > "${sarif_dir}/check.sarif" || failed=1
"${bin}/opprentice_hotpath" --root "${root}" --sarif > "${sarif_dir}/hotpath.sarif" || failed=1
"${bin}/opprentice_locks" --root "${root}" --sarif > "${sarif_dir}/locks.sarif" || failed=1
"${bin}/opprentice_locks" --root "${root}" --graph > "${sarif_dir}/locks_graph.dot" || failed=1

# Merge: SARIF 2.1.0 allows one log with many runs; concatenating the
# runs arrays keeps each tool's rule metadata intact.
python3 - "${out}" "${sarif_dir}/lint.sarif" "${sarif_dir}/check.sarif" \
    "${sarif_dir}/hotpath.sarif" "${sarif_dir}/locks.sarif" <<'EOF' || failed=1
import json
import sys

out, *parts = sys.argv[1:]
runs = []
for part in parts:
    with open(part) as fh:
        doc = json.load(fh)
    assert doc["version"] == "2.1.0", (part, doc.get("version"))
    runs.extend(doc["runs"])
merged = {
    "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
    "version": "2.1.0",
    "runs": runs,
}
with open(out, "w") as fh:
    json.dump(merged, fh, indent=2)
    fh.write("\n")
tools = [run["tool"]["driver"]["name"] for run in runs]
results = sum(len(run.get("results", [])) for run in runs)
print(f"merged {len(runs)} runs ({', '.join(tools)}), "
      f"{results} results -> {out}")
EOF

if [[ "${failed}" -ne 0 ]]; then
  echo "run_lints.sh: FAILED (see above)" >&2
  exit 1
fi
echo "run_lints.sh: OK"
