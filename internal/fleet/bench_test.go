package fleet

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
)

// BenchmarkIngestThroughput measures the full serving path — Submit →
// shard queue → streaming windower → detector step — in readings/sec.
// Readings spread over 16 deployments so every shard stays busy, and each
// replay pass shifts event time forward so windows keep closing.
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = 2
	tr, err := gdi.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const deployments = 16
	span := tr.Readings[len(tr.Readings)-1].Time + time.Hour

	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			pool, err := New(Config{Shards: shards, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := tr.Readings[i%len(tr.Readings)]
				r.Time += time.Duration(i/len(tr.Readings)) * span
				if err := pool.Submit(ingest.Reading{
					Deployment: fmt.Sprintf("dep-%d", i%deployments),
					Reading:    r,
				}); err != nil {
					b.Fatal(err)
				}
			}
			pool.Drain()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "readings/sec")
		})
	}
}

// BenchmarkRecover times fleet.New with Recover on copies of one crash image:
// a 4-shard durable pool, eight deployments per shard (each its own 2-day GDI
// trace, ~105 readings/h), checkpoints every 19000 readings per shard, killed
// at 30 h of event time. The newest checkpoint of every shard lies at ~22.6 h,
// inside the 24 h bootstrap, so it holds every deployment's pending buffer,
// and the replayed journal tail runs each deployment's bootstrap k-means —
// the shape of perfbench's recover image, at half its deployments. Only New
// is timed; B/op is recovery's allocation.
func BenchmarkRecover(b *testing.B) {
	const shards, perShard = 4, 8
	deps := spreadDeployments(shards, perShard)
	var rs []ingest.Reading
	for d, name := range deps {
		cfg := gdi.DefaultGenerateConfig()
		cfg.Days = 2
		cfg.Seed = int64(d + 1)
		tr, err := gdi.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i, r := range tr.Readings {
			if r.Time < 30*time.Hour {
				rs = append(rs, ingest.Reading{Deployment: name, Seq: uint64(i + 1), Reading: r})
			}
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })

	image := b.TempDir()
	durability := Durability{Dir: image, EveryN: 19000}
	p, err := New(Config{Shards: shards, Seed: 1, Durability: durability})
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(rs); lo += 500 {
		if _, _, err := p.SubmitBatch(rs[lo:min(lo+500, len(rs))]); err != nil {
			b.Fatal(err)
		}
	}
	p.abort()
	for id := 0; id < shards; id++ {
		ckpts, err := checkpointFiles.list(chaos.OS, shardDir(image, id))
		if err != nil || len(ckpts) == 0 {
			b.Fatalf("shard %d: no checkpoint (%v)", id, err)
		}
		data, err := os.ReadFile(ckpts[len(ckpts)-1].path)
		if err != nil {
			b.Fatal(err)
		}
		cf, err := decodeCheckpoint(data, id, shards)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range cf.deployments {
			if d.Pending == 0 {
				b.Fatalf("shard %d: newest checkpoint (seq %d) lies past %s's bootstrap", id, cf.header.Seq, d.Name)
			}
		}
	}

	durability.Recover = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		durability.Dir = filepath.Join(b.TempDir(), "image")
		if err := copyTree(image, durability.Dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p, err := New(Config{Shards: shards, Seed: 1, Durability: durability})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		p.abort()
		b.StartTimer()
	}
}

// copyTree copies every file under src to the same relative path under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
