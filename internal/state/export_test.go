package state

// SetRefuseDebit switches the DebitLoads test seam: while set, an armed cell
// always refuses the debit, so its lane runs the cell-driven loop.
func SetRefuseDebit(v bool) { refuseDebit = v }
