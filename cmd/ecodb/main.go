// Command ecodb regenerates the paper's tables and figures on the
// simulated system under test, and serves the engine over HTTP.
//
// Usage:
//
//	ecodb [flags] <experiment>...
//	ecodb serve [flags]
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, fig6, fig6hash,
// warmcold, server, all. The serve subcommand starts the multi-tenant
// query server (see docs/OPERATIONS.md).
//
// Flags:
//
//	-sf float       generated TPC-H scale factor override
//	-amp float      work amplification override (SF×amp = paper-equivalent SF)
//	-runs int       measurement repetitions per point (default: paper's 5)
//	-seed uint      data-generation seed
//	-metrics string dump the engine metrics registry after all runs (text/json)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecodb/internal/experiments"
	"ecodb/internal/obsv"
)

var (
	flagSF       = flag.Float64("sf", 0, "generated TPC-H scale factor override (0 = experiment default)")
	flagAmp      = flag.Float64("amp", 0, "work amplification override (0 = experiment default)")
	flagRuns     = flag.Int("runs", 0, "measurement repetitions per point (0 = experiment default)")
	flagSeed     = flag.Uint64("seed", 0, "data-generation seed (0 = experiment default)")
	flagShared   = flag.Bool("shared-scan", true, "serve non-mergeable QED batches from one shared heap pass (sharedscan experiment; false = control arm)")
	flagZoneMaps = flag.Bool("zone-maps", true, "enable zone-map page pruning in the compression experiment's treated arm")
	flagDict     = flag.Bool("dict-strings", true, "enable dictionary-encoded string columns in the compression experiment's treated arm")
	flagMetrics  = flag.String("metrics", "", "dump the engine metrics registry after all experiments: text or json")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// The query-server subcommand owns its flags; see serve.go.
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ecodb:", err)
			os.Exit(1)
		}
		return
	}
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	for _, name := range args {
		if name == "all" {
			runAll()
			continue
		}
		if err := runOne(name); err != nil {
			fmt.Fprintln(os.Stderr, "ecodb:", err)
			os.Exit(1)
		}
	}
	if err := dumpMetrics(*flagMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "ecodb:", err)
		os.Exit(1)
	}
}

// dumpMetrics prints the process-wide metrics registry — every engine the
// experiments built shares it — in the requested format.
func dumpMetrics(format string) error {
	switch format {
	case "":
		return nil
	case "text":
		fmt.Println("engine metrics:")
		fmt.Print(obsv.Default().Snapshot().Text())
	case "json":
		fmt.Print(obsv.Default().Snapshot().JSON())
	default:
		return fmt.Errorf("unknown -metrics format %q (want text or json)", format)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ecodb [flags] <experiment>...

experiments:
  table1    system power breakdown (paper Table 1)
  fig1      commercial DBMS operating points, medium downgrade (Figure 1)
  fig2      commercial DBMS ratio sweep, both downgrades (Figure 2)
  fig3      MySQL MEMORY ratio sweep (Figure 3)
  fig4      observed vs theoretical EDP = V²/F (Figure 4)
  fig5      disk throughput and energy per KB (Figure 5)
  fig6      QED energy vs response time (Figure 6)
  fig6hash  Figure 6 with the hash-set merge strategy (ablation)
  warmcold  §3.5 warm vs cold buffer pool
  capvsuc   ablation: FSB underclocking vs multiplier capping
  mechanisms ablation: decompose setting A's savings by mechanism
  sharedscan ablation: QED shared-scan flush vs sequential (see -shared-scan)
  compression ablation: plain vs compressed columnar storage — zone-map
            pruning + dictionary strings (see -zone-maps, -dict-strings)
  optimizer ablation: cost-and-energy optimizer objectives on a TPC-H Q5
            batch — hand-lowered vs latency-optimal vs joules-optimal plans
  server    ablation: query-server admission policies under open-loop load —
            latency-vs-joules Pareto at 10²–10⁴ QPS (see docs/OPERATIONS.md)
  all       every paper experiment (table1..fig6, warmcold)

subcommands:
  serve     HTTP query server with admission control (ecodb serve -help)

flags:
`)
	flag.PrintDefaults()
}

func override(cfg experiments.Config) experiments.Config {
	if *flagSF > 0 {
		cfg.SF = *flagSF
	}
	if *flagAmp > 0 {
		cfg.Amplification = *flagAmp
	}
	if *flagRuns > 0 {
		cfg.ProtocolRuns = *flagRuns
	}
	if *flagSeed != 0 {
		cfg.Seed = *flagSeed
	}
	return cfg
}

func runOne(name string) error {
	start := time.Now()
	var out fmt.Stringer
	switch name {
	case "table1":
		out = experiments.Table1()
	case "fig1":
		out = experiments.Figure1(override(experiments.DefaultCommercialConfig()))
	case "fig2":
		out = experiments.Figure2(override(experiments.DefaultCommercialConfig()))
	case "fig3":
		out = experiments.Figure3(override(experiments.DefaultMySQLConfig()))
	case "fig4":
		out = experiments.Figure4(override(experiments.DefaultMySQLConfig()))
	case "fig5":
		out = experiments.Figure5()
	case "fig6":
		out = experiments.Figure6(override(experiments.DefaultMySQLConfig()))
	case "fig6hash":
		out = experiments.Figure6HashSet(override(experiments.DefaultMySQLConfig()))
	case "warmcold":
		out = experiments.WarmCold(override(experiments.DefaultCommercialConfig()))
	case "capvsuc":
		out = experiments.CapVsUnderclock(override(experiments.DefaultCommercialConfig()))
	case "mechanisms":
		out = experiments.Mechanisms(override(experiments.DefaultCommercialConfig()))
	case "sharedscan":
		out = experiments.SharedScans(override(experiments.DefaultCommercialConfig()), *flagShared)
	case "compression":
		out = experiments.Compression(override(experiments.DefaultCommercialConfig()), *flagZoneMaps, *flagDict)
	case "optimizer":
		out = experiments.Optimizer(override(experiments.DefaultCommercialConfig()))
	case "server":
		out = experiments.Server(override(experiments.DefaultServerConfig()))
	default:
		return fmt.Errorf("unknown experiment %q (try: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig6hash warmcold capvsuc mechanisms sharedscan compression optimizer server all; flags go before the experiment name)", name)
	}
	fmt.Println(out)
	fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

func runAll() {
	for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "warmcold"} {
		if err := runOne(name); err != nil {
			fmt.Fprintln(os.Stderr, "ecodb:", err)
			os.Exit(1)
		}
	}
}
