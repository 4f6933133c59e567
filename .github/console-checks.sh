# Checks of the installed `ioncodesign` console script; run with `bash -e`.
#
# The entry point from [project.scripts] must start and write a table; a
# nonzero exit or a missing CSV fails the run. An option that would
# overflow (lambda = c2 * tau past the float range) must exit 2 and create
# no --out. Result files are standard JSON: c2 = 0 takes the correlation's
# limit, c2 > 0 at the largest tau (lambda = 1e8 or 1e308), a lambda whose
# square overflows and a huge phi_in at a large lambda stay finite. A result too large to
# allocate exits 1 and creates no --out. A Hamiltonian
# whose scale overflows, one whose entries are JSON strings, one whose size
# is 2.0 (an integer takes no fraction), a frequency
# grid whose largest phase overflows, and a config naming the retired
# `out_dir` are config errors (exit 2) that name the field. So is an
# inference jitter that throws the initial guess out of range, found once
# the command runs: it names `perturb` and leaves no --out. A heating rate
# that overflows inside the simulation exits 1 with one error line, no
# RuntimeWarning and no --out. Two calibrate runs write a calibration CSV
# and a standard-JSON fit, byte for byte the same, and so do two
# feedforward-table runs, whose corners share the dense scan's rows through
# one caller-owned dict; the table is also written at a 0.5 rad cap.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

standard_json() {
  python3 - "$1" <<'EOF'
import json, sys
def reject(name):
    raise ValueError(f"non-standard JSON constant {name}")
with open(sys.argv[1]) as fh:
    json.load(fh, parse_constant=reject)
EOF
}

ioncodesign --help
for run in 1 2; do
  ioncodesign calibrate --shots 200 --out "$tmp/calibrate$run"
  test -s "$tmp/calibrate$run/calibration.csv"
  standard_json "$tmp/calibrate$run/calibration_fit.json"
done
for file in calibration.csv calibration_fit.json; do
  cmp "$tmp/calibrate1/$file" "$tmp/calibrate2/$file"
done
for run in 1 2; do
  ioncodesign feedforward-table --n-phi 4 --n-lam 3 --out "$tmp/fftable$run"
  test -s "$tmp/fftable$run/feedforward_table.csv"
done
cmp "$tmp/fftable1/feedforward_table.csv" "$tmp/fftable2/feedforward_table.csv"
ioncodesign feedforward-table --n-phi 4 --n-lam 3 --phi-cap 0.5 --out "$tmp/fftable-cap"
test -s "$tmp/fftable-cap/feedforward_table.csv"
code=0
ioncodesign noise-stats --c2 1e300 --tau 1e10 --out "$tmp/bad" || code=$?
test "$code" -eq 2
test ! -e "$tmp/bad"
ioncodesign noise-stats --tau 1e200 --out "$tmp/huge-lambda"
standard_json "$tmp/huge-lambda/noise_stats.json"
ioncodesign noise-stats --c2 0 --tau 1e308 --out "$tmp/c2zero"
standard_json "$tmp/c2zero/noise_stats.json"
ioncodesign noise-stats --c2 1e-300 --tau 1e308 --out "$tmp/c2tiny"
standard_json "$tmp/c2tiny/noise_stats.json"
ioncodesign noise-stats --c2 1 --tau 1e308 --out "$tmp/c2one"
standard_json "$tmp/c2one/noise_stats.json"
ioncodesign noise-stats --phi-in 1e150 --tau 1e10 --out "$tmp/wide"
standard_json "$tmp/wide/noise_stats.json"
code=0
ioncodesign feedforward-table --phi-cap 1e14 --n-phi 1 --n-lam 2 --out "$tmp/huge-cap" \
  || code=$?
test "$code" -eq 1
test ! -e "$tmp/huge-cap"
echo '{"hamiltonian": {"n": 2, "J": [[0, 1e308], [1e308, 0]], "h": [1e308, 0]}}' \
  > "$tmp/huge.json"
code=0
ioncodesign depth-sweep --config "$tmp/huge.json" --out "$tmp/huge" \
  2> "$tmp/huge.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/huge"
grep -q "'hamiltonian'" "$tmp/huge.err"
echo '{"hamiltonian": {"n": 1, "J": [[0]], "h": [1]}, "out_dir": "elsewhere"}' \
  > "$tmp/outdir.json"
code=0
ioncodesign noise-stats --config "$tmp/outdir.json" --out "$tmp/outdir" \
  2> "$tmp/outdir.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/outdir"
grep -q "'out_dir'" "$tmp/outdir.err"
echo '{"hamiltonian": {"n": 2, "J": [["0", "0.5"], ["0.5", "0"]], "h": [1, -2]}}' \
  > "$tmp/strings.json"
code=0
ioncodesign depth-sweep --config "$tmp/strings.json" --out "$tmp/strings" \
  2> "$tmp/strings.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/strings"
grep -q "'hamiltonian'" "$tmp/strings.err"
echo '{"hamiltonian": {"n": 2.0, "J": [[0, 0.5], [0.5, 0]], "h": [1, -2]}}' \
  > "$tmp/float-size.json"
code=0
ioncodesign depth-sweep --config "$tmp/float-size.json" --out "$tmp/float-size" \
  2> "$tmp/float-size.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/float-size"
grep -q "'hamiltonian'" "$tmp/float-size.err"
echo '{"hamiltonian": {"n": 2, "J": [[0, 0.5], [0.5, 0]], "h": [1, -2]}, "c2": 1e308,
 "t_g": 2, "n_runs": 1, "r": 2, "t_max": 1, "n_times": 3, "n_omega": 21}' > "$tmp/hot.json"
code=0
ioncodesign simulate-spectrum --config "$tmp/hot.json" --out "$tmp/hot" \
  2> "$tmp/hot.err" || code=$?
test "$code" -eq 1
test ! -e "$tmp/hot"
if grep -q "RuntimeWarning" "$tmp/hot.err"; then exit 1; fi
echo '{"hamiltonian": {"n": 2, "J": [[0, 0.5], [0.5, 0]], "h": [1, -2]},
 "omega_max": 1e308, "t_max": 2}' > "$tmp/omega.json"
code=0
ioncodesign simulate-spectrum --config "$tmp/omega.json" --out "$tmp/omega" \
  2> "$tmp/omega.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/omega"
grep -q "'omega_max'" "$tmp/omega.err"
code=0
ioncodesign infer --perturb 1e307 --iterations 1 --out "$tmp/perturb" \
  2> "$tmp/perturb.err" || code=$?
test "$code" -eq 2
test ! -e "$tmp/perturb"
grep -q "'perturb'" "$tmp/perturb.err"
