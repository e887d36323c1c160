package transform

import "fmt"

// Action records one transformation applied — or one pass skipped —
// by the pipeline.
type Action struct {
	Pass    string // "fuse", "contract", "shrink", "store-elim"
	Nest    string // nest label (after fusion)
	Array   string // affected array, if any
	Note    string
	Skipped bool // the pass failed and was rolled back; Note holds the cause
}

// String renders the action for reports.
func (a Action) String() string {
	if a.Skipped {
		if a.Array == "" {
			return fmt.Sprintf("%s: SKIPPED (%s)", a.Pass, a.Note)
		}
		return fmt.Sprintf("%s: SKIPPED %s in %s (%s)", a.Pass, a.Array, a.Nest, a.Note)
	}
	if a.Array == "" {
		return fmt.Sprintf("%s: %s", a.Pass, a.Note)
	}
	return fmt.Sprintf("%s: %s in %s (%s)", a.Pass, a.Array, a.Nest, a.Note)
}

// Options selects which passes of the default pipeline run. Only
// perfbench still configures runs this way (Config.Options); everything
// else names its passes with a pipeline string (Config.Pipeline).
type Options struct {
	Fuse            bool
	ReduceStorage   bool // contraction + shrinking
	EliminateStores bool
}

// All enables every pass — the paper's full strategy, DefaultPipelineSpec.
func All() Options { return Options{Fuse: true, ReduceStorage: true, EliminateStores: true} }
