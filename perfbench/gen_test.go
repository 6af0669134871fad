package main

import (
	"bytes"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// The seed alone fixes what the server is sent: the same seed gives
// byte-identical request streams, another seed a different one.
func TestSeedFixesRequestStream(t *testing.T) {
	for _, wl := range []string{"cold-distinct", "hot-repeat", "ingest-retrain"} {
		digest := func(seed int64) [32]byte {
			in, err := makeInputs(wl, seed, 2, genJobs(seed, "corpus", 50))
			if err != nil {
				t.Fatal(err)
			}
			return in.digest()
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request streams", wl)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", wl)
		}
	}
}

func TestBatchBodyIsWriteDataset(t *testing.T) {
	jobs, err := distinctJobs(4, "cold", 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 0, 4}
	recs := []*darshan.Record{jobs[3].rec, jobs[0].rec, jobs[4].rec}
	if !bytes.Equal(batchBody(jobs, idx), encodeBatch(recs)) {
		t.Fatal("batchBody differs from darshan.WriteDataset")
	}
}

func TestIngestPlanCounts(t *testing.T) {
	corpus := genJobs(3, "corpus", 20)
	plan := ingestPlan(3, corpus, 4, ingestBatchJobs, ingestDups, ingestInvalid)
	for i, b := range plan {
		if b.fresh != ingestFresh || b.dups != ingestDups || b.invalid != ingestInvalid {
			t.Fatalf("batch %d: %+v", i, b)
		}
	}
}
