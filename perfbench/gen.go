package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// Every generated input derives from the workload seed through seedFor, so
// one --seed fixes the corpus, the request bodies, their order and the
// ingest batches, and the program under test sees only those bytes.

// corpusJobs is the size of the set-up log database the five models are
// trained on.
const corpusJobs = 1000

// seedFor derives the seed of one named input stream from the workload seed.
func seedFor(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench/%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// genJobs returns n seeded jobs of the logdb mixture for one stream.
func genJobs(seed int64, stream string, n int) []*darshan.Record {
	return logdb.Generate(logdb.GenConfig{Jobs: n, Seed: seedFor(seed, stream)}).Records
}

func encodeLog(rec *darshan.Record) []byte {
	var b bytes.Buffer
	if err := darshan.WriteLog(&b, rec); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

func encodeBatch(recs []*darshan.Record) []byte {
	var b bytes.Buffer
	if err := darshan.WriteDataset(&b, &darshan.Dataset{Records: recs}); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// job is one distinct diagnosis input: the record and its request body.
type job struct {
	rec  *darshan.Record
	body []byte
}

// distinctJobs generates n jobs whose bodies are pairwise distinct, so a
// cold stream can never hit the server's result cache by accident.
func distinctJobs(seed int64, stream string, n int) ([]job, error) {
	recs := genJobs(seed, stream, n)
	seen := make(map[[32]byte]bool, n)
	out := make([]job, n)
	for i, rec := range recs {
		body := encodeLog(rec)
		h := sha256.Sum256(body)
		if seen[h] {
			return nil, fmt.Errorf("stream %s: job %d repeats an earlier body", stream, i)
		}
		seen[h] = true
		out[i] = job{rec: rec, body: body}
	}
	return out, nil
}

// schedule returns the due offsets of an open loop at a fixed rate: request
// i is due i/rate after the loop starts, independent of how fast the server
// answers.
func schedule(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// zipfPicks draws n indices into a working set of size w, skewed by
// hotZipf and hotZipfV.
func zipfPicks(seed int64, stream string, w, n int) []int {
	rng := rand.New(rand.NewSource(seedFor(seed, stream)))
	z := rand.NewZipf(rng, hotZipf, hotZipfV, uint64(w-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// ingestBatch is one POST /api/v1/jobs body and the counts the server must
// report for it.
type ingestBatch struct {
	body                 []byte
	fresh, dups, invalid int
}

// ingestPlan builds batches of size per batch from fresh jobs. Each batch
// re-ships dupsPer jobs already shipped (or, for the first batch, jobs of the
// set-up corpus, which the job log already holds) and carries invalidPer
// copies of fresh jobs with a non-finite counter, which the lenient parser
// rejects. Shares are fixed, so every batch holds size-dupsPer-invalidPer
// fresh jobs.
func ingestPlan(seed int64, corpus []*darshan.Record, batches, size, dupsPer, invalidPer int) []ingestBatch {
	freshPer := size - dupsPer - invalidPer
	fresh := genJobs(seed, "ingest", batches*freshPer)
	rng := rand.New(rand.NewSource(seedFor(seed, "ingest-mix")))
	shipped := append([]*darshan.Record(nil), corpus...)
	out := make([]ingestBatch, batches)
	for b := range out {
		recs := make([]*darshan.Record, 0, size)
		mine := fresh[b*freshPer : (b+1)*freshPer]
		recs = append(recs, mine...)
		for i := 0; i < dupsPer; i++ {
			recs = append(recs, shipped[rng.Intn(len(shipped))])
		}
		for i := 0; i < invalidPer; i++ {
			bad := *mine[rng.Intn(len(mine))]
			bad.Counters[rng.Intn(int(darshan.NumCounters))] = math.NaN()
			recs = append(recs, &bad)
		}
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		shipped = append(shipped, mine...)
		out[b] = ingestBatch{
			body: encodeBatch(recs), fresh: freshPer, dups: dupsPer, invalid: invalidPer,
		}
	}
	return out
}

// batchBody is the /api/v1/diagnose/batch body of jobs[idx...]: the
// pre-encoded logs joined by blank lines, byte for byte what
// darshan.WriteDataset writes, without re-encoding on the generator's CPU.
func batchBody(jobs []job, idx []int) []byte {
	parts := make([][]byte, len(idx))
	for k, i := range idx {
		parts[k] = jobs[i].body
	}
	return bytes.Join(parts, []byte("\n"))
}
