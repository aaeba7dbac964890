#!/usr/bin/env bash
# Service smoke test: start `wcds serve` on loopback, drive a scripted
# rejected ingest of a tampered payload → ingest → broadcast →
# construct → route → mutate → route → broadcast →
# stats → pipelined route burst (`--repeat N --pipeline`) → harden →
# broadcast → crash a node → degraded broadcast → shutdown session
# through `wcds query`, and require a clean server exit. Each broadcast must print its exact
# expected line.
#
# Usage: scripts/service_smoke.sh
# Set WCDS_SMOKE_PORT to move the server off the default port 7741, and
# WCDS_THREADS to run the compute crates' parallel engine; the expected
# lines are the same at every width.
set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -eq 0 ]] || { echo "usage: scripts/service_smoke.sh (takes no arguments)" >&2; exit 2; }

PORT="${WCDS_SMOKE_PORT:-7741}"
GRAPH="$(mktemp -t wcds-smoke-XXXXXX.graph)"
TAMPERED="$(mktemp -t wcds-smoke-XXXXXX.graph)"
trap 'rm -f "${GRAPH}" "${TAMPERED}"; kill "${SERVER_PID:-}" 2>/dev/null || true' EXIT

wcds() {
  cargo run --release -q -p wcds-cli --bin wcds -- "$@"
}

# build first so the backgrounded serve doesn't race a compile
cargo build --release -p wcds-cli

wcds generate --model uniform --n 60 --side 4 --seed 5 -o "${GRAPH}"
# the same deployment with its first edge line deleted: its edges are no
# longer the unit-disk graph of its points
awk '/^edge / && !cut { cut = 1; next } 1' "${GRAPH}" > "${TAMPERED}"

# broadcast ADDR SOURCE LINE: one broadcast query whose output must be
# exactly LINE (the plans are deterministic for the generated graph)
broadcast() {
  local addr="$1" source="$2" want="$3" got
  got="$(wcds query broadcast --addr "${addr}" --name net --source "${source}")"
  echo "${got}"
  if ! grep -qxF -- "${want}" <<<"${got}"; then
    echo "broadcast from ${source}: expected \`${want}\`" >&2
    exit 1
  fi
}

session() {
  local addr="$1"

  wcds serve --addr "${addr}" --workers 4 &
  SERVER_PID=$!

  # wait for the listener
  for _ in $(seq 1 100); do
    if wcds query ping --addr "${addr}" >/dev/null 2>&1; then break; fi
    sleep 0.1
  done

  wcds query ping      --addr "${addr}"
  local rejected
  if rejected="$(wcds query create --addr "${addr}" --name net -i "${TAMPERED}" 2>&1)"; then
    echo "create of a payload with a deleted edge succeeded: ${rejected}" >&2
    exit 1
  fi
  echo "${rejected}"
  if ! grep -qF -- "bad-payload" <<<"${rejected}"; then
    echo "create of a payload with a deleted edge: expected \`bad-payload\`" >&2
    exit 1
  fi
  wcds query create    --addr "${addr}" --name net -i "${GRAPH}"
  broadcast "${addr}" 0 "broadcast from 0: 30 forwarders, 60 informed"
  wcds query construct --addr "${addr}" --name net
  wcds query route     --addr "${addr}" --name net --from 0 --to 59
  wcds query mutate    --addr "${addr}" --name net --join 2.0,2.0
  wcds query route     --addr "${addr}" --name net --from 0 --to 60
  wcds query mutate    --addr "${addr}" --name net --move 5,1.5,1.5
  # the mutations reset the lazy plan: this one is derived afresh
  broadcast "${addr}" 60 "broadcast from 60: 34 forwarders, 61 informed"
  wcds query stats     --addr "${addr}" --name net

  # pipelined burst: 32 routes in one write, drained in order
  wcds query route --addr "${addr}" --name net --from 0 --to 59 \
    --repeat 32 --pipeline

  # failure-storm smoke: harden to a (2,2)-resilient backbone, park a
  # node out of radio range (a crash through the mutation API), and
  # require broadcast, routing and stats to keep answering in degraded
  # mode
  wcds query harden    --addr "${addr}" --name net --k 2 --m 2
  broadcast "${addr}" 0 "broadcast from 0: 45 forwarders, 61 informed"
  wcds query mutate    --addr "${addr}" --name net --move 7,900.0,900.0
  broadcast "${addr}" 0 "degraded: topology partitioned (1 nodes unreachable from 0)"
  wcds query route     --addr "${addr}" --name net --from 0 --to 59
  wcds query stats     --addr "${addr}" --name net
  wcds query export    --addr "${addr}" --name net | head -n 1
  wcds query shutdown  --addr "${addr}"

  # graceful exit: serve must return 0 on its own (join() proved no
  # worker leaked; a hang here fails CI via the step timeout)
  wait "${SERVER_PID}"
  SERVER_PID=""
  echo "service smoke OK (WCDS_THREADS=${WCDS_THREADS:-unset})"
}

session "127.0.0.1:${PORT}"
