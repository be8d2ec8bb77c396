package victims

import (
	"math"

	"branchscope/internal/cpu"
)

// IDCT victim (§9.2): JPEG decompression applies an inverse discrete
// cosine transform to 8×8 coefficient blocks. libjpeg's jpeg_idct_islow
// checks each column of the coefficient matrix for all-zero AC terms and,
// when the check passes, replaces the column transform with a trivial
// DC-only fill. Each check compiles to an individual conditional branch,
// so the sequence of branch directions reveals which columns (and, in the
// row pass, rows) carry non-zero coefficients — the relative complexity
// of the decoded pixel block. BranchScope recovers exactly these
// directions; prior work could only count page faults (§9.2).

// ColumnCheckAddr returns the virtual address of the all-AC-zero check
// branch for column c (the column loop is unrolled in the optimized
// decoder, giving each check its own address).
func ColumnCheckAddr(c int) uint64 {
	return 0x0042_1000 + uint64(c)*0x20
}

// RowCheckAddr returns the virtual address of the all-AC-zero check
// branch for row r of the second pass.
func RowCheckAddr(r int) uint64 {
	return 0x0042_2000 + uint64(r)*0x20
}

// CheckAddrs returns the sixteen check-branch addresses in the order
// the decoder executes them for one block: the eight column checks, then
// the eight row checks.
func CheckAddrs() []uint64 {
	addrs := make([]uint64, 0, 16)
	for c := 0; c < 8; c++ {
		addrs = append(addrs, ColumnCheckAddr(c))
	}
	for r := 0; r < 8; r++ {
		addrs = append(addrs, RowCheckAddr(r))
	}
	return addrs
}

// Block is an 8×8 JPEG coefficient block in natural (row-major) order.
type Block [8][8]int32

// ColumnACZero reports whether column c has no non-zero AC coefficients
// (rows 1..7) — the ground truth for the column-check branch.
func (b *Block) ColumnACZero(c int) bool {
	for r := 1; r < 8; r++ {
		if b[r][c] != 0 {
			return false
		}
	}
	return true
}

// RowACZero reports whether row r of the intermediate matrix would be
// DC-only. For the victim model the check is applied to the input block's
// rows, matching the structure (one branch per row) rather than the exact
// intermediate values of libjpeg's fixed-point pipeline.
func (b *Block) RowACZero(r int) bool {
	for c := 1; c < 8; c++ {
		if b[r][c] != 0 {
			return false
		}
	}
	return true
}

// idctCost approximates the per-column/row instruction cost of the full
// transform versus the shortcut.
const (
	idctFullCost     = 60
	idctShortcutCost = 10
)

// IDCT performs the inverse DCT of one block on ctx, executing the
// column- and row-check branches the way the optimized decoder does
// (branch taken = shortcut applies = all AC terms zero), and returns the
// spatial-domain result computed with the separable float kernel.
func IDCT(ctx *cpu.Context, b *Block) *[8][8]float64 {
	var tmp [8][8]float64 // after column pass: tmp[r][c]
	// Column pass.
	for c := 0; c < 8; c++ {
		zero := b.ColumnACZero(c)
		ctx.Branch(ColumnCheckAddr(c), zero)
		if zero {
			// DC-only shortcut: constant column.
			v := idct1Point(float64(b[0][c]))
			for r := 0; r < 8; r++ {
				tmp[r][c] = v
			}
			ctx.Work(idctShortcutCost)
			continue
		}
		var col [8]float64
		for r := 0; r < 8; r++ {
			col[r] = float64(b[r][c])
		}
		out := idct1D(col)
		for r := 0; r < 8; r++ {
			tmp[r][c] = out[r]
		}
		ctx.Work(idctFullCost)
	}
	// Row pass.
	var px [8][8]float64
	for r := 0; r < 8; r++ {
		zero := b.RowACZero(r)
		ctx.Branch(RowCheckAddr(r), zero)
		out := idct1D(tmp[r])
		px[r] = out
		if zero {
			ctx.Work(idctShortcutCost)
		} else {
			ctx.Work(idctFullCost)
		}
	}
	return &px
}

// idct1D is the exact 8-point inverse DCT-II (orthonormal scaling).
func idct1D(in [8]float64) [8]float64 {
	var out [8]float64
	for x := 0; x < 8; x++ {
		sum := 0.0
		for u := 0; u < 8; u++ {
			cu := 1.0
			if u == 0 {
				cu = 1 / math.Sqrt2
			}
			sum += cu * in[u] * math.Cos((2*float64(x)+1)*float64(u)*math.Pi/16)
		}
		out[x] = sum / 2
	}
	return out
}

// idct1Point is the DC-only shortcut value: the inverse transform of a
// vector whose AC terms are all zero is constant.
func idct1Point(dc float64) float64 {
	return dc / (2 * math.Sqrt2)
}

// IDCTProcess decodes a stream of blocks forever (a decoder service),
// appending results through out when non-nil.
func IDCTProcess(blocks []Block, out *[]*[8][8]float64) func(*cpu.Context) {
	return func(ctx *cpu.Context) {
		for {
			for i := range blocks {
				r := IDCT(ctx, &blocks[i])
				if out != nil {
					*out = append(*out, r)
				}
			}
		}
	}
}
