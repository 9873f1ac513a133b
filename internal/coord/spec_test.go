package coord

import (
	"strings"
	"testing"

	"knightking/internal/alg"
	"knightking/internal/job"
)

// TestJobSpecValidate: every spec the coordinator would seat only to watch
// each rank fail must be refused up front, naming what is wrong.
func TestJobSpecValidate(t *testing.T) {
	valid := JobSpec{GraphPath: "g.txt", Spec: job.Spec{Spec: alg.Spec{Alg: "node2vec"}, CheckpointEvery: 4}, CheckpointDir: "ck"}
	for _, tc := range []struct {
		name    string
		edit    func(*JobSpec)
		wantErr string // "" = valid
	}{
		{"valid", func(*JobSpec) {}, ""},
		{"empty graph path", func(s *JobSpec) { s.GraphPath = "" }, "no graph path"},
		{"unknown algorithm", func(s *JobSpec) { s.Alg = "pagerank" }, `"pagerank"`},
		{"metapath without schemes", func(s *JobSpec) { s.Alg, s.Schemes = "metapath", " ; " }, "no metapath schemes"},
		{"metapath bad element", func(s *JobSpec) { s.Alg, s.Schemes = "metapath", "0,x" }, `"x"`},
		{"negative checkpoint interval", func(s *JobSpec) { s.CheckpointEvery = -1 }, "negative checkpoint interval -1"},
		{"negative node2vec p", func(s *JobSpec) { s.P = -1 }, "p=-1"},
		{"ppr pt above 1", func(s *JobSpec) { s.Alg, s.Pt = "ppr", 1.5 }, "pt 1.5"},
		{"rwr restart above 1", func(s *JobSpec) { s.Alg, s.Restart = "rwr", 2 }, "restart 2"},
		{"negative walkers", func(s *JobSpec) { s.Walkers = -5 }, "must be non-negative"},
		{"negative length", func(s *JobSpec) { s.Alg, s.Length = "deepwalk", -5 }, "length -5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			tc.edit(&s)
			err := s.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Validate = %v, want nil", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Validate accepted the spec, want an error naming %s", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("Validate = %v, want it to mention %s", err, tc.wantErr)
			}
		})
	}
}
