// Command qtransdemo walks the paper's running example (Figs. 5 and 7)
// through the whole QSAT pipeline, printing each stage:
//
//  1. the original 9-query sequence,
//  2. the forward define-use analysis with reaching-definition sets,
//  3. the QUD chains,
//  4. Round 1 (useless query elimination / mark-sweep),
//  5. Round 2 (query inference & reordering),
//  6. the production one-pass QSAT output, and
//  7. the end-to-end Engine evaluation of the sequence.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/palm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qtransdemo:", err)
		os.Exit(1)
	}
}

func sequence() []keys.Query {
	return keys.Number([]keys.Query{
		keys.Insert(1, 1), // 1: I(key1, v1)
		keys.Search(1),    // 2: S(key1)
		keys.Insert(2, 2), // 3: I(key2, v2)
		keys.Search(1),    // 4: S(key1)
		keys.Insert(3, 3), // 5: I(key3, v3)
		keys.Insert(2, 4), // 6: I(key2, v4)
		keys.Delete(3),    // 7: D(key3)
		keys.Search(3),    // 8: S(key3)
		keys.Search(2),    // 9: S(key2)
	})
}

func run() error {
	qs := sequence()

	fmt.Println("== Original query sequence (Fig. 5) ==")
	for i, q := range qs {
		fmt.Printf("%2d  %s\n", i+1, q)
	}

	fmt.Println("\n== Forward define-use analysis (Fig. 7-a) ==")
	a := core.Analyze(qs)
	fmt.Print(core.FormatAnalysis(a))

	fmt.Println("\n== QUD chains (Fig. 7-b) ==")
	for i, d := range a.QUD {
		if qs[i].Op == keys.OpSearch && d >= 0 {
			fmt.Printf("q%d (%s)  ->  q%d (%s)\n", i+1, qs[i], d+1, qs[d])
		}
	}

	fmt.Println("\n== Round 1: useless query elimination (Fig. 7-c) ==")
	kept := a.MarkSweep()
	for _, i := range kept {
		fmt.Printf("%2d  %s\n", i+1, qs[i])
	}
	fmt.Printf("(%d of %d queries remain)\n", len(kept), len(qs))

	fmt.Println("\n== Round 2: query inference & reordering (Fig. 7-d) ==")
	ops := core.TwoRoundQSAT(qs)
	remaining := 0
	for _, op := range ops {
		fmt.Printf("    %s\n", op)
		if !op.Return {
			remaining++
		}
	}
	fmt.Printf("(%d queries need evaluation)\n", remaining)

	fmt.Println("\n== One-pass QSAT (Algorithm 2) ==")
	sorted := append([]keys.Query(nil), qs...)
	keys.SortByKey(sorted)
	var router core.Router
	router.Reset(len(qs))
	rs := keys.NewResultSet(len(qs))
	em := core.NewEmitter(&router, rs)
	core.QSATSequence(sorted, em)
	for _, q := range em.Out {
		fmt.Printf("    evaluate %s\n", q)
	}
	fmt.Printf("(%d inferred returns, %d queries remain)\n", em.Inferred, len(em.Out))

	fmt.Println("\n== End-to-end Engine evaluation ==")
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          core.IntraInter,
		Palm:          palm.Config{Order: 8, Workers: 2, LoadBalance: true},
		CacheCapacity: 4,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	batch := sequence()
	res := keys.NewResultSet(len(batch))
	eng.ProcessBatch(batch, res)
	for i := int32(0); i < int32(res.Len()); i++ {
		if r, ok := res.Get(i); ok {
			if r.Found {
				fmt.Printf("q%d  ->  ret %d\n", i+1, r.Value)
			} else {
				fmt.Printf("q%d  ->  ret null\n", i+1)
			}
		}
	}
	fmt.Printf("stats: %s\n", eng.Stats())
	return nil
}
