package chaos

import "testing"

// The golden specs below pin both generators for seeds 1-20: any change
// to a budget, weight or intensity constant, to a draw order or to the
// spec renderer shows up as a diff here, and with it a change in every
// soak episode and repro the seed names. N=3 is the soak's in-process
// scenario; the proc shape is its 2x2 cluster. The values were generated
// with the generators' configurable defaults, which the constants equal.

var goldenScheduleN3 = [20]string{
	"seed=1,partition=0@2+3,bscrash=4,crash=0@5,crash=2@5,bsrestart=6,restart=0@6,restart=2@6",
	"seed=2,drop=0.039,dup=0.007,reorder=0.061,partition=0@2+1,partition=2@2+1,partition=1@3+1,partition=0@4+5",
	"seed=3,partition=0@1+6,partition=2@1+6,crash=0@4,restart=0@6",
	"seed=4,drop=0.015,dup=0.051,partition=2@1+4,partition=1@2+2,crash=0@5,restart=0@6,partition=2@6+2",
	"seed=5,crash=2@1,restart=2@3,partition=1@5+4,linkfault=0@5:dup=0.097;delay=3ms,linkfault=0@6",
	"seed=6,drop=0.126,dup=0.092,reorder=0.079,bscrash=1,linkfault=1@1:drop=0.115;dup=0.129;delay=1ms,bsrestart=2,linkfault=1@2:drop=0.126;dup=0.092;reorder=0.079,partition=1@3+1,partition=2@6+3",
	"seed=7,crash=0@1,partition=2@2+3,restart=0@3,crash=1@3,restart=1@4,linkfault=2@4:drop=0.127;dup=0.019,linkfault=2@5",
	"seed=8,drop=0.102,dup=0.131,reorder=0.076,crash=0@1,restart=0@3,linkfault=*@3:drop=0.122;dup=0.081;delay=1ms,crash=0@4,restart=0@5,linkfault=*@5:drop=0.102;dup=0.131;reorder=0.076,partition=0@6+1",
	"seed=9,drop=0.015,dup=0.078,delay=3ms,crash=1@1,partition=0@3+3,restart=1@3,partition=2@6+6",
	"seed=10,drop=0.062,dup=0.138,reorder=0.048,linkfault=2@1:drop=0.083;dup=0.136;reorder=0.044,crash=0@3,linkfault=2@3:drop=0.062;dup=0.138;reorder=0.048,crash=2@4,restart=0@5,restart=2@5,partition=0@6+2",
	"seed=11,drop=0.12,dup=0.122,crash=1@1,bscrash=2,restart=1@3,crash=2@4,bsrestart=4,restart=2@6,partition=1@6+3",
	"seed=12,crash=0@4,crash=1@5,restart=1@6,restart=0@6",
	"seed=13,drop=0.1,dup=0.01,linkfault=*@3:drop=0.057;dup=0.143;delay=1ms,partition=0@4+6,linkfault=*@5:drop=0.1;dup=0.01,partition=2@6+5",
	"seed=14,bscrash=1,crash=1@2,bsrestart=3,crash=0@3,crash=2@3,restart=1@3,restart=0@4,restart=2@4",
	"seed=15,drop=0.057,dup=0.014,crash=2@4,bscrash=4,crash=0@4,linkfault=1@4:drop=0.138;dup=0.025;reorder=0.099,restart=2@5,bsrestart=6,restart=0@6,linkfault=1@6:drop=0.057;dup=0.014",
	"seed=16,linkfault=*@2:drop=0.049;dup=0.097;delay=2ms,linkfault=2@3:drop=0.131;delay=3ms,linkfault=*@4,linkfault=2@5",
	"seed=17,drop=0.037,dup=0.058,reorder=0.02,partition=2@3+2,crash=1@3,crash=0@4,restart=1@4,restart=0@5",
	"seed=18,drop=0.086,dup=0.005,reorder=0.039,bscrash=1,linkfault=2@3:drop=0.112;dup=0.081;reorder=0.041,bsrestart=3,crash=0@3,linkfault=2@4:drop=0.086;dup=0.005;reorder=0.039,restart=0@4,bscrash=4,bsrestart=6",
	"seed=19,crash=2@1,crash=1@3,restart=2@3,bscrash=4,restart=1@4,bsrestart=5,crash=1@5,restart=1@6",
	"seed=20,drop=0.062,dup=0.006,crash=0@1,crash=2@2,restart=0@3,bscrash=3,crash=1@3,restart=2@4,bsrestart=5,restart=1@5",
}

var goldenScheduleN4 = [20]string{
	"seed=1,partition=2@2+5,crash=0@2,restart=0@3,bscrash=4,crash=1@5,bsrestart=6,restart=1@6",
	"seed=2,drop=0.039,dup=0.007,reorder=0.061,partition=0@2+1,partition=1@3+3,partition=3@4+1,partition=3@6+1",
	"seed=3,partition=0@1+2,partition=2@1+6,crash=0@3,crash=2@4,restart=0@5,restart=2@6",
	"seed=4,drop=0.015,dup=0.051,partition=1@1+4,partition=0@2+8,crash=2@5,partition=0@5+6,restart=2@6",
	"seed=5,partition=0@3+1,partition=1@5+4,bscrash=5,bsrestart=6",
	"seed=6,drop=0.126,dup=0.092,reorder=0.079,bscrash=1,linkfault=3@1:drop=0.115;dup=0.129;delay=1ms,bsrestart=2,linkfault=3@2:drop=0.126;dup=0.092;reorder=0.079,partition=2@6+7",
	"seed=7,crash=1@1,restart=1@3,crash=0@3,restart=0@4,partition=0@6+3",
	"seed=8,drop=0.102,dup=0.131,reorder=0.076,crash=1@1,crash=0@2,restart=1@3,restart=0@3,linkfault=*@3:drop=0.122;dup=0.081;delay=1ms,partition=3@5+1,linkfault=*@5:drop=0.102;dup=0.131;reorder=0.076",
	"seed=9,drop=0.015,dup=0.078,delay=3ms,crash=0@1,partition=2@3+5,restart=0@3,partition=2@6+8",
	"seed=10,drop=0.062,dup=0.138,reorder=0.048,linkfault=2@1:drop=0.083;dup=0.136;reorder=0.044,partition=0@1+8,crash=3@3,linkfault=2@3:drop=0.062;dup=0.138;reorder=0.048,restart=3@5",
	"seed=11,drop=0.12,dup=0.122,crash=1@1,bscrash=2,restart=1@3,crash=1@4,bsrestart=4,restart=1@6,partition=2@6+7",
	"seed=12,crash=0@2,crash=3@4,restart=0@4,crash=2@5,restart=2@6,restart=3@6",
	"seed=13,drop=0.1,dup=0.01,linkfault=*@3:drop=0.057;dup=0.143;delay=1ms,partition=2@4+8,linkfault=*@5:drop=0.1;dup=0.01,partition=1@6+1",
	"seed=14,bscrash=1,crash=2@2,bsrestart=3,crash=0@3,restart=2@3,restart=0@4,crash=0@5,restart=0@6",
	"seed=15,drop=0.057,dup=0.014,crash=3@4,bscrash=4,crash=0@4,linkfault=2@4:drop=0.138;dup=0.025;reorder=0.099,restart=3@5,bsrestart=6,restart=0@6,linkfault=2@6:drop=0.057;dup=0.014",
	"seed=16,linkfault=*@2:drop=0.049;dup=0.097;delay=2ms,linkfault=3@3:drop=0.131;delay=3ms,linkfault=*@4,linkfault=3@5",
	"seed=17,drop=0.037,dup=0.058,reorder=0.02,crash=1@4,restart=1@5,partition=3@5+6,partition=1@6+6",
	"seed=18,drop=0.086,dup=0.005,reorder=0.039,bscrash=1,linkfault=3@3:drop=0.112;dup=0.081;reorder=0.041,bsrestart=3,crash=0@3,linkfault=3@4:drop=0.086;dup=0.005;reorder=0.039,restart=0@4,bscrash=4,bsrestart=6",
	"seed=19,crash=1@1,crash=2@3,crash=0@3,restart=1@3,bscrash=4,restart=2@4,restart=0@4,bsrestart=5",
	"seed=20,drop=0.062,dup=0.006,crash=0@1,restart=0@3,bscrash=3,crash=2@3,crash=0@4,bsrestart=5,restart=2@5,restart=0@6",
}

var goldenProcSchedule = [20]string{
	"spawndelay=cell-1.1@11ms,kill=cell-0.0@1,kill=cell-1.1@3",
	"kill=cell-1.0@1,kill=cell-0@1,stop=cell-0.1@3+101ms",
	"stop=cell-1.0@1+63ms,kill=cell-1.1@1,kill=cell-1@4",
	"kill=cell-0.0@2,kill=cell-1.1@2,stop=cell-1.0@4+137ms",
	"spawndelay=cell-1.0@60ms,stop=cell-0@2+50ms,stop=cell-1@3+109ms",
	"spawndelay=cell-0@76ms,stop=cell-1.0@4+55ms,stop=cell-0@4+53ms",
	"stop=cell-1@1+97ms,kill=cell-1.0@1,kill=cell-0.1@2",
	"stop=cell-1@1+62ms,stop=cell-1.0@2+64ms,kill=cell-1.0@4",
	"kill=cell-1.1@3,stop=cell-0.1@3+43ms",
	"kill=cell-1.1@1,kill=cell-0.1@4,stop=cell-0.0@4+33ms",
	"stop=cell-0@2+62ms,kill=cell-0.1@2,kill=cell-1.1@3",
	"spawndelay=cell-0@42ms,spawndelay=cell-1@24ms,kill=cell-1@3",
	"spawndelay=cell-1.0@24ms,stop=cell-0.1@2+79ms,stop=cell-1.0@4+93ms",
	"spawndelay=cell-1.1@69ms,kill=cell-0.1@1",
	"kill=cell-1@1,kill=cell-0.1@2,stop=cell-1.1@2+106ms",
	"spawndelay=cell-0@42ms,spawndelay=cell-1.1@62ms,stop=cell-0@1+87ms",
	"kill=cell-0.1@1,kill=cell-1.0@1,kill=cell-1@4",
	"kill=cell-1.1@1,stop=cell-0@3+81ms,stop=cell-0.0@4+79ms",
	"spawndelay=cell-1.1@60ms,kill=cell-0@1,kill=cell-1@3",
	"kill=cell-0.1@1,stop=cell-1@4+46ms",
}

func TestRandomScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want *[20]string
	}{{3, &goldenScheduleN3}, {4, &goldenScheduleN4}} {
		for i, want := range tc.want {
			seed := int64(i + 1)
			s, err := RandomSchedule(seed, tc.n)
			if err != nil {
				t.Fatalf("N=%d seed %d: %v", tc.n, seed, err)
			}
			if got := s.Spec(); got != want {
				t.Errorf("N=%d seed %d:\n got  %s\n want %s", tc.n, seed, got, want)
			}
		}
	}
}

func TestRandomProcScheduleGolden(t *testing.T) {
	cells := []ProcCell{{Name: "cell-0", SBSs: 2}, {Name: "cell-1", SBSs: 2}}
	for i, want := range goldenProcSchedule {
		seed := int64(i + 1)
		s, err := RandomProcSchedule(seed, cells)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := s.Spec(); got != want {
			t.Errorf("seed %d:\n got  %s\n want %s", seed, got, want)
		}
	}
}
