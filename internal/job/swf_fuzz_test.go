package job

import (
	"math"
	"strings"
	"testing"
)

// TestReadSWFHardening pins the damaged-record policy: non-finite and
// absurdly large values are skipped records (never imported, never a
// panic), and the user column survives the import when present.
func TestReadSWFHardening(t *testing.T) {
	swf := strings.Join([]string{
		"1 0 10 3600 64 -1 -1 64 7200 -1 1 5 5 1 1 -1 -1 -1",       // good, user 5
		"2 NaN 10 3600 64 -1 -1 64 7200 -1 1 5 5 1 1 -1 -1 -1",     // NaN submit
		"3 0 10 +Inf 64 -1 -1 64 7200 -1 1 5 5 1 1 -1 -1 -1",       // Inf runtime
		"4 0 10 3600 1e300 -1 -1 1e300 7200 -1 1 5 5 1 1 -1 -1 -1", // absurd procs
		"5 1e20 10 3600 64 -1 -1 64 7200 -1 1 5 5 1 1 -1 -1 -1",    // beyond a century
		"6 0 10 3600 64 -1 -1 64 NaN -1 1 5 5 1 1 -1 -1 -1",        // NaN walltime: runtime fallback
	}, "\n")
	jobs, skipped, err := ReadSWF(strings.NewReader(swf), SWFOptions{ProcsPerNode: 64, Resources: 2})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	if len(jobs) != 2 || jobs[0].ID != 1 || jobs[1].ID != 6 {
		t.Fatalf("imported %v", jobs)
	}
	if jobs[0].User != 5 {
		t.Fatalf("user column lost: %+v", jobs[0])
	}
	if jobs[1].Walltime != jobs[1].Runtime {
		t.Fatalf("NaN walltime should fall back to runtime, got %g", jobs[1].Walltime)
	}
}

// TestSWFRoundTripUser pins that the user id survives WriteSWF -> ReadSWF.
func TestSWFRoundTripUser(t *testing.T) {
	orig := []*Job{
		{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Demand: []int{4, 0}, User: 17},
		{ID: 2, Submit: 50, Runtime: 300, Walltime: 300, Demand: []int{16, 0}}, // unattributed
	}
	opts := SWFOptions{ProcsPerNode: 64, Resources: 2}
	var buf strings.Builder
	if err := WriteSWF(&buf, orig, opts); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadSWF(strings.NewReader(buf.String()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].User != 17 || back[1].User != 0 {
		t.Fatalf("users after round trip: %d, %d", back[0].User, back[1].User)
	}
}

// FuzzParseSWF feeds arbitrary bytes to the SWF parser. The contract under
// fuzzing: ReadSWF returns an error for structurally broken input and never
// panics, and every job it does import is finite, well-formed, and sorted
// by submit time.
func FuzzParseSWF(f *testing.F) {
	f.Add([]byte(sampleSWF))
	f.Add([]byte("; comment only\n"))
	f.Add([]byte("# hash comment\n\n"))
	f.Add([]byte("1 0 10 3600 64 -1 -1 64 7200 -1 1 5 5 1 1 -1 -1 -1"))
	f.Add([]byte("1 0 10 3600 64"))                             // truncated
	f.Add([]byte("x 0 10 3600 64 -1 -1 64 7200"))               // bad job number
	f.Add([]byte("1 NaN 10 +Inf -Inf -1 -1 1e300 7200 -1 1 5")) // non-finite soup
	f.Add([]byte("1 0 10 3600 9223372036854775807 -1 -1 1 1"))  // overflow-sized procs
	f.Add([]byte("2 100 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 -1 -1 -1\n1 50 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 -1 -1 -1\n"))
	f.Add([]byte("1\t0\t10\t3600\t64\t-1\t-1\t64\t7200")) // tab-separated
	f.Add([]byte("-1 -1 -1 -1 -1 -1 -1 -1 -1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, skipped, err := ReadSWF(strings.NewReader(string(data)),
			SWFOptions{ProcsPerNode: 64, Resources: 2, MaxJobs: 4096})
		if err != nil {
			return // rejected loudly: exactly what damage should produce
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		for i, j := range jobs {
			if err := j.Validate(nil); err != nil {
				t.Fatalf("imported job fails validation: %v", err)
			}
			for _, v := range []float64{j.Submit, j.Runtime, j.Walltime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite field in imported job %+v", j)
				}
			}
			if len(j.Demand) != 2 {
				t.Fatalf("demand arity %d", len(j.Demand))
			}
			if i > 0 && jobs[i-1].Submit > j.Submit {
				t.Fatalf("import not sorted: %g > %g", jobs[i-1].Submit, j.Submit)
			}
		}
	})
}
