#!/bin/sh
# Docs gate (make docs): the documentation must not drift from the code.
# Checks that every `make <target>` the docs mention exists in the
# Makefile, and that every repo-relative path the docs reference exists.
set -eu
cd "$(dirname "$0")/.."

fail=0

docs="README.md ARCHITECTURE.md EXPERIMENTS.md profiles/README.md"

# 1. Every `make X` mentioned in the docs must be a real Makefile target.
for t in $(grep -ohE 'make [a-z-]+' $docs | awk '{print $2}' | sort -u); do
	if ! grep -qE "^$t:" Makefile; then
		echo "checkdocs: $t mentioned as a make target but not in Makefile" >&2
		fail=1
	fi
done

# 2. Every path-looking reference must exist: `cmd/...`, `internal/...`,
# `examples/...`, `profiles/...` (testdata files are covered by their
# qualified internal/... spelling), and `*.md` files.
refs=$(
	grep -ohE '(\./)?(cmd|internal|examples|profiles|scripts)/[A-Za-z0-9_./-]+' $docs
	grep -ohE '[A-Za-z0-9_-]+\.md' $docs
)
for r in $(printf '%s\n' "$refs" | sed 's|^\./||; s|[).,:;]*$||' | sort -u); do
	case "$r" in
	# Prose shorthands that name a package family, not a literal path.
	*/...) continue ;;
	esac
	if [ ! -e "$r" ]; then
		# Paths inside packages may be referenced as pkg/file.go even
		# when only the package dir is meant; require the dir at least.
		if [ ! -e "$(dirname "$r")" ]; then
			echo "checkdocs: $r referenced in docs but does not exist" >&2
			fail=1
		fi
	fi
done

# 3. Quick-start commands must name real main packages.
for d in $(grep -ohE 'go run \./[A-Za-z0-9/_-]+' $docs | awk '{print $3}' | sort -u); do
	if [ ! -d "${d#./}" ]; then
		echo "checkdocs: quick-start names $d but the directory is missing" >&2
		fail=1
	fi
done

# 4. Every flag a documented dsmsim/sweep/metricsdiff/experiment/dsmserve
# invocation uses must still be registered in that command's main.go
# (catches stale flag names when a CLI flag is renamed but the docs keep
# the old spelling).
for tool in dsmsim sweep metricsdiff experiment dsmserve; do
	# Anchor on a non-flag, non-word char before the tool name so that
	# a flag or word merely ending in a tool name never parses as an
	# invocation, and stop at # so `make X  # = go test ...` comments
	# don't leak go-test flags into the scan.
	flags=$(grep -ohE "(^|[^-A-Za-z])$tool [^\`|#]*" $docs |
		grep -oE ' -[a-z][a-z-]*' | sed 's/^ -//' | sort -u)
	for f in $flags; do
		if ! grep -qE "flag\.[A-Za-z0-9]+\(\&?[A-Za-z]*,? ?\"$f\"" "cmd/$tool/main.go"; then
			echo "checkdocs: docs use $tool -$f but cmd/$tool/main.go does not register it" >&2
			fail=1
		fi
	done
done

# 5. The reverse of check 4 for the fault-injection, liveness, and
# pipeline surface: these flags are the user-facing contract of the
# chaos machinery, the experiment pipeline, and the job server, so the
# docs must keep mentioning them (check 4 then verifies the spelling
# against the CLI registration).
for f in ctrl-crash ctrl-hang watchdog chaos schema profile backends \
	trend snapshot render engine-profile server store; do
	if ! grep -qE -- "-$f" $docs; then
		echo "checkdocs: flag -$f is registered in a CLI but never documented" >&2
		fail=1
	fi
done

# 6. The generated tables of EXPERIMENTS.md must match a fresh render:
# cmd/experiment -render -check re-runs the underlying simulations and
# exits nonzero naming any stale block. This is the slow check (~20s of
# simulation), so it runs last, after the cheap greps have had their
# chance to fail fast.
if ! go run ./cmd/experiment -render -check; then
	echo "checkdocs: EXPERIMENTS.md generated blocks are stale (run: go run ./cmd/experiment -render)" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "checkdocs: FAILED" >&2
	exit 1
fi
echo "checkdocs: ok"
