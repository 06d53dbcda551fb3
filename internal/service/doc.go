// Package service is the job layer: one spec-driven request path for every
// oracle, distributed run, and sweep in the repository, static or churned.
//
// A Request pairs a spec.GraphSpec (which graph) with a spec.TaskSpec
// (which computation). Run resolves the task kind through a Registry of
// runners — each runner wraps exactly one facade entry-point family of the
// root localmix package, and the distributed ones build their run with
// core.TaskConfig, as the cluster peers do — against a GraphCache entry holding the built
// graph plus its lazily-built walk kernel, warm core.SweepPool workers,
// and churn providers, all keyed by the graph spec's canonical key. A
// semaphore bounds concurrent runs (admission control), and requests that
// omit a seed get a deterministic per-request seed derived from the
// service's base seed and the request content.
//
// Because every computation is deterministic given (graph key, normalized
// task key, resolved seed), finished Responses are memoized in an LRU
// ResultCache keyed by that triple: an identical repeat is served from
// memory without touching a runner, and concurrent identical requests are
// collapsed by a singleflight group into one computation whose result all
// waiters share. Schedule-only knobs (Workers, SweepWorkers, DeadlineMS,
// Cluster) are zeroed out of the key and the derived seed alike because
// they never change the answer, and a sweep's default mode has one
// spelling ("approx" is normalized to ""). Failed
// runs are never cached. RunBatch runs many tasks against one graph
// through the same path, so duplicate specs inside a batch dedup too.
// A TaskSpec may carry a DeadlineMS budget; Run wraps the context so
// overrunning computations abort cooperatively with a timeout error.
//
// Equivalence contract: for every registered kind, Run's result is
// byte-identical (reflect.DeepEqual) to the corresponding direct facade
// call — the facade itself delegates through the same runners via Call and
// a cache-less DirectEnv, so there is exactly one code path. The cache
// only changes *when* graphs and kernels are built, never what a runner
// computes; this is enforced by internal/service's tests.
//
// Concurrency: Run is safe for concurrent use. Cached sweep pools are
// serialized per pool key (a core.SweepPool is single-sweep at a time);
// kernels and graphs are immutable and shared freely.
package service
