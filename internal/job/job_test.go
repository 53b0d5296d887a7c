package job

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkJob(id int, submit, runtime float64, demand ...int) *Job {
	return &Job{ID: id, Submit: submit, Runtime: runtime, Walltime: runtime * 1.5, Demand: demand}
}

func TestValidate(t *testing.T) {
	caps := []int{100, 50}
	good := mkJob(1, 0, 60, 10, 5)
	if err := good.Validate(caps); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"negative submit", func(j *Job) { j.Submit = -1 }},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }},
		{"zero walltime", func(j *Job) { j.Walltime = 0 }},
		{"no demands", func(j *Job) { j.Demand = nil }},
		{"wrong arity", func(j *Job) { j.Demand = []int{1} }},
		{"negative demand", func(j *Job) { j.Demand = []int{5, -1} }},
		{"over capacity", func(j *Job) { j.Demand = []int{101, 5} }},
		{"zero primary", func(j *Job) { j.Demand = []int{0, 5} }},
		{"NaN submit", func(j *Job) { j.Submit = math.NaN() }},
		{"NaN runtime", func(j *Job) { j.Runtime = math.NaN() }},
		{"NaN walltime", func(j *Job) { j.Walltime = math.NaN() }},
		{"infinite walltime", func(j *Job) { j.Walltime = math.Inf(1) }},
	}
	for _, tc := range cases {
		j := mkJob(2, 0, 60, 10, 5)
		tc.mut(j)
		if err := j.Validate(caps); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestWaitAndSlowdown(t *testing.T) {
	j := mkJob(1, 100, 50, 4)
	j.Start = 130
	if j.Wait() != 30 {
		t.Fatalf("Wait = %v, want 30", j.Wait())
	}
	if got := j.Slowdown(); math.Abs(got-(30+50)/50.0) > 1e-12 {
		t.Fatalf("Slowdown = %v", got)
	}
}

func TestCloneResetsSimulationState(t *testing.T) {
	j := mkJob(1, 0, 10, 3, 2)
	j.State = Running
	j.Start = 5
	c := j.Clone()
	if c.State != Queued || c.Start != 0 {
		t.Fatal("Clone must reset simulation state")
	}
	c.Demand[0] = 99
	if j.Demand[0] == 99 {
		t.Fatal("Clone aliased Demand")
	}
}

func TestSortBySubmitStable(t *testing.T) {
	jobs := []*Job{mkJob(3, 10, 1, 1), mkJob(1, 5, 1, 1), mkJob(2, 5, 1, 1)}
	SortBySubmit(jobs)
	if jobs[0].ID != 1 || jobs[1].ID != 2 || jobs[2].ID != 3 {
		t.Fatalf("order = %d,%d,%d", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	jobs := []*Job{
		mkJob(1, 0, 100, 16, 5),
		mkJob(2, 30.5, 200, 8, 0),
		mkJob(3, 61.25, 50, 128, 40),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, jobs, []string{"nodes", "bb"}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip count %d, want %d", len(back), len(jobs))
	}
	for i, j := range jobs {
		b := back[i]
		if b.ID != j.ID || math.Abs(b.Submit-j.Submit) > 1e-3 ||
			math.Abs(b.Runtime-j.Runtime) > 1e-3 || b.Demand[0] != j.Demand[0] || b.Demand[1] != j.Demand[1] {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, b, j)
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 1
		jobs := make([]*Job, count)
		for i := range jobs {
			jobs[i] = &Job{
				ID:       i + 1,
				Submit:   float64(rng.Intn(100000)) / 4,
				Runtime:  float64(rng.Intn(10000)+1) / 2,
				Walltime: float64(rng.Intn(20000)+1) / 2,
				Demand:   []int{rng.Intn(100) + 1, rng.Intn(50)},
			}
		}
		SortBySubmit(jobs)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, jobs, []string{"nodes", "bb"}); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil || len(back) != len(jobs) {
			return false
		}
		for i := range jobs {
			if back[i].ID != jobs[i].ID || back[i].Demand[0] != jobs[i].Demand[0] {
				return false
			}
			if math.Abs(back[i].Submit-jobs[i].Submit) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := []string{
		"1 0 10",                     // too few fields
		"x 0 10 20 4",                // bad id
		"1 zero 10 20 4",             // bad submit
		"1 0 10 20 4\n2 0 10 20 4 7", // inconsistent columns
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("malformed trace accepted: %q", c)
		}
	}
}

func TestReadTraceSkipsComments(t *testing.T) {
	in := "# header\n\n1 0 10 20 4 2\n# trailing\n"
	jobs, err := ReadTrace(strings.NewReader(in))
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs=%v err=%v", jobs, err)
	}
}
