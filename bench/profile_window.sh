#!/usr/bin/env bash
# Sampled host profile of tashbench's measured window.
#
#   bash bench/profile_window.sh --workload W --seeds S1 S2 ... [--smoke]
#
# Copies the checkout (without _build and .git) to a temporary directory,
# patches the copy's benchmark so that a 1 ms SIGPROF timer samples the OCaml
# call stack only while the window's `Engine.run` calls run, builds it, runs
# one `tashbench rep` per seed and merges every seed's samples into:
#   - modules: self and inclusive share, a Stdlib/Camlinternal frame charged
#     to its first caller outside them (as bench/main.exe --profile does);
#   - Stdlib leaves: samples whose innermost frame is a Stdlib module, per
#     module and per (module, first non-Stdlib caller module);
#   - the top 25 functions by self share (a Stdlib frame named
#     `fn <- caller`).
# The checkout itself is never edited. Exits 1 if a patch anchor is missing
# (the benchmark changed shape: update the anchors below) or a rep fails.
# --smoke runs the reps' 1 sim-s smoke windows.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=""
seeds=()
smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seeds)
      shift
      while [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; do
        seeds+=("$1")
        shift
      done ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "profile_window: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$workload" ] || [ ${#seeds[@]} -eq 0 ]; then
  echo "usage: bash bench/profile_window.sh --workload W --seeds S... [--smoke]" >&2
  exit 2
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/profile_window.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
tar --exclude=./_build --exclude=./.git -cf - . | tar -xf - -C "$tmp"

# Patch the copy. Each anchor must match exactly once.
python3 - "$tmp" <<'PY'
import sys

root = sys.argv[1]

def patch(path, anchor, replacement):
    with open(path) as f:
        text = f.read()
    n = text.count(anchor)
    if n != 1:
        sys.exit(f"profile_window: anchor found {n} times in {path}: {anchor!r}")
    with open(path, "w") as f:
        f.write(text.replace(anchor, replacement))

# The sampler: bench/profile.ml's timer plus a handler and a dump of every
# sample as its frames, innermost first. The handler is defined here, not in
# rep.ml: a closure written there would be every sample's innermost frame.
with open(f"{root}/bench/profile.ml") as f:
    profile = f.read()
profile += r'''
let handler _ = samples := Printexc.get_callstack depth :: !samples

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  set_timer interval

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let dump path =
  let oc = open_out path in
  List.iter
    (fun raw ->
      output_string oc
        (String.concat "\t"
           (List.map (fun (m, fn) -> m ^ " " ^ fn) (frames_of_sample raw)));
      output_char oc '\n')
    !samples;
  close_out oc
'''
with open(f"{root}/benchmark/profile.ml", "w") as f:
    f.write(profile)

patch(f"{root}/benchmark/dune", "  tashkent.workload\n",
      "  tashkent.workload\n  tashkent.harness\n")
window = ("    Engine.run ~until:(Time.add start (Time.div (Time.mul s.window (i + 1)) chunks)) engine;\n")
patch(f"{root}/benchmark/rep.ml", window,
      "    Profile.start ();\n" + window + "    Profile.stop ();\n")
patch(f"{root}/benchmark/rep.ml", "  let words = Replay.alloc_words () -. words0 in\n",
      "  Profile.dump (Sys.getenv \"PROFILE_WINDOW_OUT\");\n"
      "  let words = Replay.alloc_words () -. words0 in\n")
PY

(cd "$tmp" && DUNE_CACHE=disabled dune build --root . --display quiet benchmark/tashbench.exe)

for seed in "${seeds[@]}"; do
  echo "profile_window: $workload seed $seed" >&2
  PROFILE_WINDOW_OUT="$tmp/samples.$seed" \
    "$tmp/_build/default/benchmark/tashbench.exe" rep --workload "$workload" --seed "$seed" $smoke \
    >/dev/null
done

python3 - "$workload" "$tmp" "${seeds[@]}" <<'PY'
import collections
import sys

workload, root, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]

samples = []
for seed in seeds:
    with open(f"{root}/samples.{seed}") as f:
        for line in f:
            line = line.rstrip("\n")
            frames = [tuple(fr.split(" ", 1)) for fr in line.split("\t")] if line else []
            samples.append(frames)

def is_stdlib(m):
    return m.startswith("Stdlib") or m.startswith("Camlinternal")

total = len(samples)
def share(n):
    return f"{100.0 * n / max(1, total):.1f}%"

def table(title, columns, rows):
    print(f"\n{title}")
    widths = [max(len(str(r[i])) for r in [columns] + rows) for i in range(len(columns))]
    for r in [columns] + rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())

def function_labels(frames):
    labels = []
    for i, (m, fn) in enumerate(frames):
        if is_stdlib(m):
            caller = next((f for (mm, f) in frames[i + 1:] if not is_stdlib(mm)), None)
            labels.append(f"{fn} <- {caller}" if caller else fn)
        else:
            labels.append(fn)
    return labels

mod_self, mod_incl = collections.Counter(), collections.Counter()
fn_self, fn_incl = collections.Counter(), collections.Counter()
leaf, leaf_by_caller = collections.Counter(), collections.Counter()
unknown = 0
for frames in samples:
    mods = [m for (m, _) in frames if not is_stdlib(m)]
    if mods:
        mod_self[mods[0]] += 1
        for m in set(mods):
            mod_incl[m] += 1
    else:
        unknown += 1
    labels = function_labels(frames)
    if labels:
        fn_self[labels[0]] += 1
        for l in set(labels):
            fn_incl[l] += 1
    if frames and is_stdlib(frames[0][0]):
        m = frames[0][0]
        leaf[m] += 1
        leaf_by_caller[(m, mods[0] if mods else "(none)")] += 1

def ranked(counter):
    return sorted(counter.items(), key=lambda kv: (-kv[1], str(kv[0])))

print(f"host profile of the {workload} window: seeds {' '.join(seeds)}, {total} samples")
table("modules (Stdlib charged to its caller)", ["module", "self", "inclusive"],
      [[m, share(n), share(mod_incl[m])] for m, n in ranked(mod_self)]
      + [["(unknown)", share(unknown), ""]])
table("Stdlib leaves", ["leaf module", "share"],
      [[m, share(n)] for m, n in ranked(leaf)]
      + [["(all Stdlib leaves)", share(sum(leaf.values()))]])
table("Stdlib leaves by caller module", ["leaf module <- caller", "share"],
      [[f"{m} <- {c}", share(n)] for (m, c), n in ranked(leaf_by_caller)])
table("top 25 functions", ["function", "self", "inclusive"],
      [[f, share(n), share(fn_incl[f])] for f, n in ranked(fn_self)[:25]])
PY
