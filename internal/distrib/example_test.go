package distrib_test

import (
	"context"
	"fmt"
	"io"
	"os"

	_ "phirel/internal/bench/all"
	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/fleet"
)

// ExampleScheduler_Submit runs one sweep through the resident scheduler
// with an in-process launcher — the LauncherFunc seam that stands in for
// the subprocess/SSH/Kubernetes transports. The worker does exactly what
// a phi-bench shard process does: read the spec file, run its plan,
// write the partial; the scheduler supervises the fan-out and folds the
// partials into the merged artifact.
func ExampleScheduler_Submit() {
	dir, err := os.MkdirTemp("", "distrib-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	worker := distrib.LauncherFunc(func(ctx context.Context, task distrib.Task, stderr io.Writer) error {
		spec, err := fleet.ReadSpecFile(task.SpecPath)
		if err != nil {
			return err
		}
		res, err := spec.RunPlan(ctx, *task.Plan)
		if err != nil {
			return err
		}
		return res.WriteFile(task.OutPath)
	})
	sched, err := distrib.NewScheduler(distrib.Options{
		Shards: 2, Launcher: worker, Dir: dir,
	})
	if err != nil {
		panic(err)
	}
	defer sched.Close()

	job, err := sched.Submit(fleet.Sweep{
		Benchmarks: []string{"DGEMM"},
		Models:     []fault.Model{fault.Single},
		N:          8,
		Seed:       11, BenchSeed: 1, Workers: 1,
	}, nil, nil)
	if err != nil {
		panic(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("state:", job.Status().State)
	fmt.Println("cells:", len(res.Cells), "injections:", res.Cells[0].Result.Outcomes.Total())
	// Output:
	// state: done
	// cells: 1 injections: 8
}
