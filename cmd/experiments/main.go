// Command experiments regenerates every table and figure of the paper's
// evaluation section: Figure 5(a)–(d), Tables 6–8, the nine worked
// examples of Sections 3–4 and the introduction's motivating example —
// then checks the processing-cost model against the execution engine:
// how well Formula 9 ranks the selections of the HRU candidates by the
// rows the engine actually scans, at four fact-row scales.
//
// Usage:
//
//	experiments [-csv DIR] [-alpha3 0.3] [-alpha7 0.7] [-large] [-large-seed 1]
//
// With -csv, each table is additionally written as a CSV file into DIR.
// With -large, it additionally runs the beyond-the-paper stress
// experiment: a generated 4-dimension × 4-level (256-cuboid) lattice
// solved by both the linearized knapsack and the exact-evaluator
// metaheuristic search under identical constraints.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vmcloud/internal/experiments"
	"vmcloud/internal/report"
)

func main() {
	csvDir := flag.String("csv", "", "directory to write CSV versions of the tables")
	alphaC := flag.Float64("alpha3", 0.3, "tradeoff weight for Figure 5(c)")
	alphaD := flag.Float64("alpha7", 0.7, "tradeoff weight for Figure 5(d); the paper's caption also mentions 0.65")
	large := flag.Bool("large", false, "also run the 256-cuboid knapsack-vs-search stress experiment")
	largeSeed := flag.Int64("large-seed", 1, "workload and search seed for -large")
	flag.Parse()

	if err := run(*csvDir, *alphaC, *alphaD); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *large {
		if err := runLarge(*largeSeed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// runLarge prints the large-lattice solver comparison (beyond the
// paper's evaluation: the setting the internal/search engine exists for).
func runLarge(seed int64) error {
	fmt.Println("== Large lattice: linearized knapsack vs metaheuristic search ==")
	res, err := experiments.RunLargeLattice(experiments.LargeLatticeConfig{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println(experiments.LargeLatticeTable(res))
	fmt.Printf("mv3 objective (α=%.2g): knapsack %.4f, search %.4f\n",
		res.Alpha, res.MV3Objective(res.KnapsackMV3), res.MV3Objective(res.SearchMV3))
	return nil
}

func run(csvDir string, alphaC, alphaD float64) error {
	fmt.Println("== Worked examples (paper Sections 1, 3, 4) ==")
	checks, err := experiments.RunWorkedExamples()
	if err != nil {
		return err
	}
	ext := report.NewTable("", "example", "description", "computed", "paper", "match", "note")
	for _, c := range checks {
		ext.AddRow(c.ID, c.Description, c.Computed, c.Paper, c.Match, c.Note)
	}
	fmt.Println(ext)

	intro, err := experiments.RunIntroExample()
	if err != nil {
		return err
	}
	fmt.Printf("Intro example: without views %v, with views %v (speedup %s, cost increase %s)\n\n",
		intro.Without.Total(), intro.With.Total(),
		report.Percent(intro.SpeedupRate), report.Percent(intro.CostIncreaseRate))

	fmt.Println("== Scenario MV1: budget limit (one-shot regime) ==")
	mv1, err := experiments.RunMV1()
	if err != nil {
		return err
	}
	t6 := experiments.Table6(mv1)
	fmt.Println(t6)
	fmt.Println(experiments.Figure5a(mv1))

	fmt.Println("== Scenario MV2: response-time limit (recurring regime) ==")
	mv2, err := experiments.RunMV2()
	if err != nil {
		return err
	}
	t7 := experiments.Table7(mv2)
	fmt.Println(t7)
	fmt.Println(experiments.Figure5b(mv2))

	fmt.Println("== Scenario MV3: time/cost tradeoff (recurring regime) ==")
	mv3c, err := experiments.RunMV3(alphaC)
	if err != nil {
		return err
	}
	mv3d, err := experiments.RunMV3(alphaD)
	if err != nil {
		return err
	}
	t8, err := experiments.Table8(mv3c, mv3d)
	if err != nil {
		return err
	}
	fmt.Println(t8)
	fmt.Println(experiments.Figure5cd(mv3c, "c"))
	fmt.Println(experiments.Figure5cd(mv3d, "d"))

	fmt.Println("== Model validation: Formula 9 vs measured engine scans ==")
	vs, err := experiments.RunModelValidation()
	if err != nil {
		return err
	}
	val := experiments.ModelValidationTable(vs)
	fmt.Println(val)

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for name, tbl := range map[string]*report.Table{
			"table6.csv":     t6,
			"table7.csv":     t7,
			"table8.csv":     t8,
			"examples.csv":   ext,
			"validation.csv": val,
		} {
			f, err := os.Create(filepath.Join(csvDir, name))
			if err != nil {
				return err
			}
			if err := tbl.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Println("CSV tables written to", csvDir)
	}
	return nil
}
