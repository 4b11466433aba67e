package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"powermap/internal/core"
	"powermap/internal/eval"
	"powermap/internal/huffman"
	"powermap/internal/mapper"
	"powermap/internal/obs"
	"powermap/internal/power"
)

// TestSuiteMatchesRunSuite guards the replicated protocol: the benchmark's
// runs must report exactly what eval.RunSuite reports.
func TestSuiteMatchesRunSuite(t *testing.T) {
	names := []string{"cm42a", "x2"}
	for _, backend := range []mapper.Backend{mapper.BackendStructural, mapper.BackendCuts} {
		rows, err := eval.RunSuite(context.Background(), core.Methods(), core.Options{
			Style: huffman.Static, Relax: core.Float64(0.15), Mapper: backend, Workers: 1,
		}, names)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			runCircuit(context.Background(), backend, circuitJobs{name, core.Methods()}, nil,
				func(label string, rep power.Report, _ time.Duration, err error) {
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", backendName(backend), name, label, err)
					}
					if label == "ref" {
						return
					}
					var want power.Report
					for m, r := range rows[i].Results {
						if m.String() == label {
							want = r
						}
					}
					if rep != want {
						t.Errorf("%s/%s/%s: benchmark %+v, eval.RunSuite %+v", backendName(backend), name, label, rep, want)
					}
				})
		}
	}
}

// publishedTables is the Tables 2/3 output recorded in EXPERIMENTS.md.
const publishedTables = `
s208     |   1944  37.49   239.5 |   1940  37.04   236.8 |   1956  38.84   242.7 |   2232  32.09   202.2 |   2312  30.07   197.6 |   2384  31.01   204.6
s344     |   4224  65.34   543.7 |   4208  63.25   522.2 |   4200  63.25   527.5 |   5200  51.96   413.6 |   5176  55.79   397.4 |   5168  52.89   402.6
s382     |   3348  56.22   438.5 |   3272  50.74   421.4 |   3284  50.74   423.1 |   3856  44.92   338.8 |   4284  43.66   380.5 |   4080  43.80   342.5
s444     |   4400  58.22   576.3 |   4424  54.77   579.5 |   4424  54.77   579.5 |   5256  51.59   450.8 |   5432  48.22   434.8 |   5408  48.90   442.0
s510     |   7928  58.78  1037.0 |   7944  59.01  1027.5 |   7872  60.92  1018.8 |   9472  54.08   813.0 |   9872  51.06   794.3 |   9792  51.06   800.5
s526     |   4740  58.60   608.7 |   4864  52.26   611.7 |   4908  53.45   625.3 |   5644  49.57   474.3 |   5780  48.30   448.9 |   5804  48.56   461.5
s641     |   4824  49.80   604.1 |   4728  58.07   589.2 |   4772  54.84   601.5 |   5448  44.81   473.0 |   5388  45.35   461.5 |   5372  43.14   469.9
s713     |   4520  53.10   533.0 |   4456  53.93   518.4 |   4464  52.22   522.9 |   5080  43.15   414.1 |   5176  44.05   398.6 |   5160  40.79   403.5
s820     |   7936  60.80   969.5 |   8064  61.37   983.8 |   8064  60.74   994.0 |   9464  50.66   756.0 |   9580  52.77   727.6 |   9572  52.62   744.1
cm42a    |    652   7.47    89.9 |    652   7.47    89.9 |    652   7.47    89.9 |    788   6.94    74.6 |    756   9.76    83.8 |    756   9.76    83.8
x1       |   7204  58.21   970.7 |   7216  60.97   932.0 |   7252  62.50   947.6 |   8856  47.69   729.4 |   8912  54.50   700.2 |   8944  53.60   707.9
x2       |   1336  30.84   187.4 |   1320  32.08   187.9 |   1320  32.08   187.9 |   1652  30.10   158.4 |   1592  32.18   148.1 |   1600  31.66   149.9
x3       |  17376  57.70  2207.2 |  17436  55.33  2157.1 |  17540  56.05  2182.4 |  20380  54.07  1724.3 |  20484  52.53  1626.1 |  20492  51.63  1653.3
ttt2     |   5660  58.25   694.9 |   5736  56.59   703.9 |   5844  56.59   732.0 |   6360  43.56   542.5 |   6392  44.74   523.6 |   6416  44.74   528.3
apex7    |   6596  57.78   859.3 |   6696  58.05   845.0 |   6712  58.05   852.6 |   8016  50.19   660.2 |   7992  51.90   636.3 |   7944  51.90   644.8
alu2     |   1800  27.19   235.4 |   1752  28.89   248.1 |   1752  28.89   248.1 |   1948  26.47   204.6 |   2044  26.79   199.1 |   2044  26.79   199.1
ex2      |   7228  55.72   832.1 |   7288  56.26   832.3 |   7344  57.07   852.5 |   8384  48.83   644.7 |   8584  48.77   624.6 |   8576  48.32   633.5
`

// TestGoldenMatchesPublishedTables checks that every structural-backend
// golden entry rounds to the published Tables 2/3 value.
func TestGoldenMatchesPublishedTables(t *testing.T) {
	golden, err := loadGolden("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(publishedTables), "\n") {
		f := strings.Fields(strings.ReplaceAll(line, "|", " "))
		if len(f) != 19 {
			t.Fatalf("malformed table row %q", line)
		}
		for i, m := range core.Methods() {
			g, ok := golden[goldenKey(mapper.BackendStructural, f[0], m.String())]
			got := fmt.Sprintf("%.0f %.2f %.1f", g.Area, g.Delay, g.Power)
			if want := strings.Join(f[1+3*i:4+3*i], " "); !ok || got != want {
				t.Errorf("%s method %s: golden %q (present %v), published %q", f[0], m, got, ok, want)
			}
		}
		rows++
	}
	if rows != 17 {
		t.Fatalf("checked %d circuits, want 17", rows)
	}
	if len(golden) != 2*17*7 {
		t.Errorf("golden file has %d entries, want %d (2 backends × 17 circuits × ref+6 methods)", len(golden), 2*17*7)
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(name string, track, start, dur int64) obs.SpanRecord {
		return obs.SpanRecord{Name: name, Track: track, StartUnixNano: start, DurationNs: dur}
	}
	self := selfTimes([]obs.SpanRecord{
		span("child", 0, 10, 30),
		span("root", 0, 0, 100),
		span("leaf", 0, 20, 10),
		span("child", 0, 50, 10),
		span("root", 1, 30, 40), // another track: no nesting with track 0
	})
	want := map[string]time.Duration{"root": 60 + 40, "child": 20 + 10, "leaf": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
}
