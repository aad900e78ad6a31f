package checkpoint

import "lvf2/internal/obs"

// Checkpoint metrics live in the process-wide default registry, so the
// daemon's /metrics (which exposes obs.Default()) and any scraper
// pointed at a long libgen/exptables run can watch durability health:
// units completing, the quarantine pressure, journal growth, and how
// much of a resumed run was skipped.
var (
	unitsDone = obs.NewCounter(obs.Default(),
		"lvf2_ckpt_units_done_total", "characterisation work units completed and journaled")
	unitsQuarantined = obs.NewCounter(obs.Default(),
		"lvf2_ckpt_units_quarantined_total", "poison work units quarantined on their failed run")
	unitsRestored = obs.NewCounter(obs.Default(),
		"lvf2_ckpt_units_restored_total", "work units restored from the journal on resume")
	// journalBytes and resumeSkipRatio are per-journal series: the Table 1
	// and Table 2 drivers (and a distributed coordinator) can all hold
	// journals open in one process, and an unlabelled gauge would report
	// whichever journal wrote last.
	journalBytes = obs.NewFloatGaugeVec(obs.Default(),
		"lvf2_ckpt_journal_bytes", "sealed checkpoint journal bytes on disk", "journal")
	resumeSkipRatio = obs.NewFloatGaugeVec(obs.Default(),
		"lvf2_ckpt_resume_skip_ratio", "fraction of the last run's units restored from the journal", "journal")
)
