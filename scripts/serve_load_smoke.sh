#!/usr/bin/env bash
# serve_load_smoke.sh — end-to-end smoke test of the serving path's cache
# contracts over real HTTP: conditional requests and the disk memo tier.
#
# Boots wsnlocd with a disk memo and fails unless (1) an If-None-Match
# replay of a solve answers 304 with an empty body, and (2) after a restart
# over the same memo dir the first repeat solve is a warm disk hit with the
# original bytes. Load under duplicate traffic is measured by the repository
# benchmark: bash bench/run.sh --workload serve-mix.
# Run from the repository root: ./scripts/serve_load_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
daemon_pid=""
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/wsnlocd" ./cmd/wsnlocd

boot_daemon() { # boot_daemon <log-suffix>
  "$workdir/wsnlocd" -addr 127.0.0.1:0 -workers 2 -memo-dir "$workdir/memo" \
    > "$workdir/stdout.$1.log" 2> "$workdir/stderr.$1.log" &
  daemon_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's|^wsnlocd: serving http://\([^/]*\)/.*|\1|p' "$workdir/stderr.$1.log" | head -n1)
    [ -n "$addr" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "serve_load_smoke: daemon exited before serving; stderr:" >&2
      cat "$workdir/stderr.$1.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "serve_load_smoke: daemon address never appeared" >&2; exit 1; }
}

boot_daemon boot1
echo "serve_load_smoke: daemon at http://$addr/"

spec='{"scenario":{"N":40,"Field":60,"AnchorFrac":0.25,"Seed":3},"algorithm":"centroid","seed":7}'

# Conditional request contract: ETag out, If-None-Match in, 304 empty back.
curl -sS -D "$workdir/h1" -o "$workdir/b1" -X POST "http://$addr/v1/solve" \
  -H 'Content-Type: application/json' -d "$spec"
# Header names are case-insensitive (Go emits "Etag").
etag=$(grep -i '^etag:' "$workdir/h1" | head -n1 | cut -d' ' -f2- | tr -d '\r')
[ -n "$etag" ] || { echo "serve_load_smoke: solve response missing ETag" >&2; cat "$workdir/h1" >&2; exit 1; }
code=$(curl -sS -o "$workdir/b304" -w '%{http_code}' -X POST "http://$addr/v1/solve" \
  -H 'Content-Type: application/json' -H "If-None-Match: $etag" -d "$spec")
[ "$code" = 304 ] || { echo "serve_load_smoke: conditional replay returned $code, want 304" >&2; exit 1; }
[ ! -s "$workdir/b304" ] || { echo "serve_load_smoke: 304 carried a body" >&2; exit 1; }
echo "serve_load_smoke: If-None-Match replay ok (304, empty body)"

# Restart over the same memo dir: the repeat solve must be a warm disk hit.
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do kill -0 "$daemon_pid" 2>/dev/null || break; sleep 0.1; done
boot_daemon boot2
curl -sS -D "$workdir/h2" -o "$workdir/b2" -X POST "http://$addr/v1/solve" \
  -H 'Content-Type: application/json' -d "$spec"
grep -qi '^X-Wsnloc-Cache: hit' "$workdir/h2" || {
  echo "serve_load_smoke: post-restart solve not a cache hit:" >&2; cat "$workdir/h2" >&2; exit 1
}
grep -qi '^X-Wsnloc-Cache-Tier: disk' "$workdir/h2" || {
  echo "serve_load_smoke: post-restart hit not from the disk tier:" >&2; cat "$workdir/h2" >&2; exit 1
}
cmp -s "$workdir/b1" "$workdir/b2" || {
  echo "serve_load_smoke: disk-tier bytes differ from the original response" >&2; exit 1
}
echo "serve_load_smoke: restart warm hit ok (disk tier, byte-identical)"
echo "serve_load_smoke: PASS"
