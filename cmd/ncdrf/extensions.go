package main

import (
	"context"
	"flag"
	"os"

	"ncdrf/internal/experiment"
	"ncdrf/internal/sweep"
)

// cmdStats prints workload statistics, including the section 3.3
// single-use fraction the whole proposal rests on.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	o := corpusFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, err := buildCorpus(o)
	if err != nil {
		return err
	}
	return experiment.Stats(corpus).Render(os.Stdout)
}

// cmdClusters runs the cluster-scaling extension study (1, 2 and 4
// clusters).
func cmdClusters(ctx context.Context, eng *sweep.Engine, args []string) error {
	fs := flag.NewFlagSet("clusters", flag.ExitOnError)
	o := corpusFlags(fs)
	lat := fs.Int("lat", 6, "floating-point latency (3 or 6)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	st, err := runPlan(ctx, eng, o, experiment.ClusterPlan(*lat, experiment.ClusterCounts))
	if err != nil {
		return err
	}
	res, err := experiment.ClusterScaling(st, *lat, experiment.ClusterCounts)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}
