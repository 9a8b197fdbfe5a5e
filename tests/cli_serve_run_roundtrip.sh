#!/bin/sh
# End-to-end check of compressor_tool's delivery path:
#   1. compress --store a C program with known output and exit code 7;
#   2. run the file;
#   3. serve it on a free port, stdin held open on a FIFO;
#   4. run 127.0.0.1:PORT and require the same output, exit code and
#      step count as the file run;
#   5. close the server's stdin and require it to exit 0;
#   6. run a truncated copy and require exit 1 with a typed message.
# The server is reaped on every exit path.
#
# usage: cli_serve_run_roundtrip.sh <compressor_tool> <scratch-dir>
set -u
tool=$1
dir=$2

server_pid=
cleanup() {
  exec 3>&-
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

rm -rf "$dir" && mkdir -p "$dir" || fail "cannot make $dir"
cat > "$dir/prog.c" <<'EOF'
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main(void) { print_int(fib(15)); print_char('\n'); return 7; }
EOF

# 1-2. Build the store image and run it from the file. The last line of
# a run is its store/client counters, which differ between sources.
"$tool" compress "$dir/prog.c" "$dir/prog.ccpk" --codec brisc+flate \
  --store || fail "compress --store"
"$tool" run "$dir/prog.ccpk" > "$dir/file.out" || fail "run from the file"
sed '$d' "$dir/file.out" > "$dir/file.run"
grep -qx '610' "$dir/file.run" || fail "file run printed the wrong output"
grep -qx 'exit 7 after [0-9][0-9]* steps' "$dir/file.run" ||
  fail "file run did not report exit 7"

# 3. Serve on an ephemeral port; the server runs until its stdin closes.
mkfifo "$dir/stdin" || fail "mkfifo"
"$tool" serve "$dir/prog.ccpk" --port 0 < "$dir/stdin" > "$dir/serve.out" &
server_pid=$!
exec 3> "$dir/stdin"
port=
tries=0
while [ -z "$port" ]; do
  port=$(sed -n 's/^listening on [0-9.]*:\([0-9][0-9]*\) .*/\1/p' \
    "$dir/serve.out")
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "server exited before listening"
  tries=$((tries + 1))
  [ "$tries" -lt 200 ] || fail "server never printed its port"
  sleep 0.1
done

# 4. The same program over TCP.
"$tool" run "127.0.0.1:$port" > "$dir/net.out" || fail "run over TCP"
sed '$d' "$dir/net.out" > "$dir/net.run"
cmp -s "$dir/file.run" "$dir/net.run" ||
  fail "file and TCP runs differ: $(cat "$dir/file.run") vs $(cat "$dir/net.run")"

# 5. EOF on stdin stops the server, with status 0.
exec 3>&-
tries=0
while kill -0 "$server_pid" 2>/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || fail "server still running after stdin closed"
  sleep 0.1
done
wait "$server_pid"
status=$?
server_pid=
[ "$status" -eq 0 ] || fail "server exited $status"
grep -q '^served [1-9][0-9]* requests' "$dir/serve.out" ||
  fail "server reported no requests"

# 6. A truncated container fails typed: exit 1, "<file>: <reason>".
size=$(wc -c < "$dir/prog.ccpk")
head -c $((size / 2)) "$dir/prog.ccpk" > "$dir/cut.ccpk"
"$tool" run "$dir/cut.ccpk" 2> "$dir/cut.err"
status=$?
[ "$status" -eq 1 ] || fail "truncated run exited $status, want 1"
grep -qF "$dir/cut.ccpk: " "$dir/cut.err" ||
  fail "truncated run printed no typed error: $(cat "$dir/cut.err")"

echo "PASS: file and TCP runs agree: $(tr '\n' ' ' < "$dir/file.run")"
