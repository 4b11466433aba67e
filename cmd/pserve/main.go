// Command pserve is the synthesis-as-a-service daemon: it accepts BLIF
// netlists (or bundled benchmark names) with synthesis options over
// HTTP/JSON on POST /synth and returns the power/area/delay report, the
// mapped netlist and the verification verdict. The full telemetry surface
// (/metrics, /healthz, /readyz, /debug/flight, /debug/pprof) is mounted
// beside the API, and SIGINT/SIGTERM drains gracefully: in-flight requests
// finish, new work is refused with 503, /readyz flips so load balancers
// rotate the instance out.
//
// Usage:
//
//	pserve -addr :8080
//	pserve -addr :8080 -inflight 8 -queue 16 -cache 256 -bdd-limit 2000000
//	bash benchmark/run.sh --workload serve-unique   # measure it (repo root)
package main

import (
	"fmt"
	"os"

	"powermap/internal/cli"
)

func main() {
	if err := cli.Pserve(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pserve:", err)
		os.Exit(1)
	}
}
