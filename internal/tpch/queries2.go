package tpch

import (
	"sort"

	"repro/internal/machine"
)

// Q12: shipping modes and order priority. MAIL/SHIP lineitems received in
// 1994 that were committed late, split by priority class.
func (e *Engine) q12() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "orderpriority")
	const mail, ship = 2, 5
	lo := int32(MkDate(1994, 1, 1))
	hi := int32(MkDate(1995, 1, 1))
	var highMail, lowMail, highShip, lowShip int64
	cols := Resolve("lineitem", "orderkey", "shipmode", "receiptdate", "commitdate", "shipdate")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		var hm, lm, hs, ls int64
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if (l.ShipMode != mail && l.ShipMode != ship) ||
				l.ReceiptDate < lo || l.ReceiptDate >= hi ||
				l.CommitDate >= l.ReceiptDate || l.ShipDate >= l.CommitDate {
				continue
			}
			e.Scan(t, ordCols, int(l.OrderKey))
			high := db.Orders[l.OrderKey].OrderPriority <= 1 // URGENT or HIGH
			switch {
			case l.ShipMode == mail && high:
				hm++
			case l.ShipMode == mail:
				lm++
			case high:
				hs++
			default:
				ls++
			}
		}
		highMail += hm
		lowMail += lm
		highShip += hs
		lowShip += ls
		mergeCharge(t, 4)
	})
	return highMail*1000 + lowMail*100 + highShip*10 + lowShip
}

// Q13: customer order-count distribution, excluding special-request
// comments.
func (e *Engine) q13() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "custkey", "comment")
	counts := make([]int32, len(db.Customers))
	e.Par(len(db.Orders), func(t *machine.Thread, lo, hi int) {
		local := map[uint64]int32{}
		for i := lo; i < hi; i++ {
			e.Scan(t, ordCols, i)
			o := &db.Orders[i]
			if o.SpecialFlag {
				continue
			}
			local[uint64(o.CustKey)]++
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			counts[k] += v
		}
		mergeCharge(t, len(local))
	})
	// Histogram of counts (including zero-order customers: the left join).
	hist := map[int32]int64{}
	for i := range db.Customers {
		hist[counts[i]]++
	}
	var check int64
	for c, n := range hist { //rangecheck:ok commutative wrapping-add checksum
		check += int64(c)*n + n
	}
	return check
}

// Q14: promotion effect. Share of September-1995 revenue from PROMO parts.
func (e *Engine) q14() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "type")
	lo := int32(MkDate(1995, 9, 1))
	hi := lo + 30
	var promo, total int64
	cols := Resolve("lineitem", "partkey", "shipdate", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		var lp, lt int64
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if l.ShipDate < lo || l.ShipDate >= hi {
				continue
			}
			e.Scan(t, partCols, int(l.PartKey))
			lt += l.Revenue()
			if TypeSyl1(int(db.Parts[l.PartKey].TypeID)) == 3 { // PROMO
				lp += l.Revenue()
			}
		}
		promo += lp
		total += lt
		mergeCharge(t, 2)
	})
	return promo/10000 + total/10000
}

// Q15: top supplier by quarterly revenue.
func (e *Engine) q15() int64 {
	db := e.DB
	lo := int32(MkDate(1996, 1, 1))
	hi := lo + 90
	rev := map[uint64]int64{}
	cols := Resolve("lineitem", "suppkey", "shipdate", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		local := map[uint64]int64{}
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if l.ShipDate >= lo && l.ShipDate < hi {
				local[uint64(l.SuppKey)] += l.Revenue()
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			rev[k] += v
		}
		mergeCharge(t, len(local))
	})
	var maxRev int64
	for _, v := range rev { //rangecheck:ok max reduction, order-independent
		if v > maxRev {
			maxRev = v
		}
	}
	var check int64
	for k, v := range rev { //rangecheck:ok commutative wrapping-add checksum
		if v == maxRev {
			check += int64(k) + v/10000
		}
	}
	return check
}

// Q16: parts/supplier relationship. Distinct suppliers per (brand, type,
// size) bucket, excluding a brand, a type prefix, and complained-about
// suppliers.
func (e *Engine) q16() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "brand", "type", "size")
	suppCols := Resolve("supplier", "suppkey", "comment")
	const excludeBrand = 19 // Brand#45
	sizes := map[int8]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	type bucket struct {
		brand int8
		typ   int16
		size  int8
		supp  int32
	}
	distinct := map[bucket]bool{}
	psCols := Resolve("partsupp", "partkey", "suppkey")
	e.Par(len(db.PartSupps), func(t *machine.Thread, lo, hi int) {
		local := map[bucket]bool{}
		for i := lo; i < hi; i++ {
			e.Scan(t, psCols, i)
			ps := &db.PartSupps[i]
			e.Scan(t, partCols, int(ps.PartKey))
			p := &db.Parts[ps.PartKey]
			if p.Brand == excludeBrand || !sizes[p.Size] {
				continue
			}
			if TypeSyl1(int(p.TypeID)) == 2 && TypeSyl2of(int(p.TypeID)) == 0 { // MEDIUM POLISHED%
				continue
			}
			e.Scan(t, suppCols, int(ps.SuppKey))
			if db.Suppliers[ps.SuppKey].ComplaintFlag {
				continue
			}
			local[bucket{p.Brand, p.TypeID, p.Size, ps.SuppKey}] = true
		}
		for k := range local { //rangecheck:ok set union, order-independent
			distinct[k] = true
		}
		mergeCharge(t, len(local))
	})
	return int64(len(distinct))
}

// TypeSyl2of extracts syllable-2 of a type id.
func TypeSyl2of(typeID int) int {
	return (typeID / len(TypeSyllable3)) % len(TypeSyllable2)
}

// Q17: small-quantity-order revenue. Lineitems under 20% of a part's
// average quantity, for one brand/container.
func (e *Engine) q17() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "brand", "container")
	liCols := Resolve("lineitem", "partkey", "quantity")
	liPriceCols := Resolve("lineitem", "partkey", "quantity", "extendedprice")
	const brand = 7                      // Brand#23
	container := int8(ContainerOf(2, 0)) // MED CASE (size MED, kind CASE)
	partOK := make([]bool, len(db.Parts))
	e.Par(len(db.Parts), func(t *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Scan(t, partCols, i)
			p := &db.Parts[i]
			partOK[i] = p.Brand == brand && p.Container == container
		}
	})
	type qa struct{ qty, n int64 }
	avg := map[uint64]*qa{}
	e.Par(len(db.Lineitems), func(t *machine.Thread, lo, hi int) {
		local := map[uint64]*qa{}
		for i := lo; i < hi; i++ {
			e.Scan(t, liCols, i)
			l := &db.Lineitems[i]
			if !partOK[l.PartKey] {
				continue
			}
			a := local[uint64(l.PartKey)]
			if a == nil {
				a = &qa{}
				local[uint64(l.PartKey)] = a
			}
			a.qty += int64(l.Quantity)
			a.n++
		}
		for k, v := range local { //rangecheck:ok commutative += merge into qa
			g := avg[k]
			if g == nil {
				g = &qa{}
				avg[k] = g
			}
			g.qty += v.qty
			g.n += v.n
		}
		mergeCharge(t, len(local))
	})
	var sum int64
	e.Par(len(db.Lineitems), func(t *machine.Thread, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			e.Scan(t, liPriceCols, i)
			l := &db.Lineitems[i]
			a := avg[uint64(l.PartKey)]
			if a == nil || a.n == 0 {
				continue
			}
			// quantity < 0.2 * avg(quantity)
			if int64(l.Quantity)*a.n*5 < a.qty {
				local += l.ExtendedPrice
			}
		}
		sum += local
		mergeCharge(t, 1)
	})
	return sum / 7 / 100
}

// Q18: large-volume customers. Orders whose lineitems total over 300
// units, top 100 by total price.
func (e *Engine) q18() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "custkey", "orderdate", "totalprice")
	liCols := Resolve("lineitem", "orderkey", "quantity")
	type row struct {
		order int32
		price int64
		qty   int64
	}
	var rows []row
	e.Par(len(db.Orders), func(t *machine.Thread, lo, hi int) {
		var local []row
		for i := lo; i < hi; i++ {
			e.Scan(t, ordCols, i)
			start := int(db.OrderLineStart[i])
			var qty int64
			for j, l := range db.LineitemsOf(i) {
				e.Scan(t, liCols, start+j)
				qty += int64(l.Quantity)
			}
			if qty > 300 {
				local = append(local, row{db.Orders[i].OrderKey, db.Orders[i].TotalPrice, qty})
			}
		}
		rows = append(rows, local...)
		mergeCharge(t, len(local))
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].price != rows[j].price {
			return rows[i].price > rows[j].price
		}
		return rows[i].order < rows[j].order
	})
	if len(rows) > 100 {
		rows = rows[:100]
	}
	var check int64
	for _, r := range rows {
		check += r.qty + r.price/10000
	}
	return check
}

// Q19: discounted revenue over three disjunctive brand/container/quantity
// predicate blocks.
func (e *Engine) q19() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "brand", "container", "size")
	var sum int64
	cols := Resolve("lineitem", "partkey", "quantity", "shipmode", "shipinstruct", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			// shipmode in (AIR, REG AIR) and shipinstruct = DELIVER IN PERSON
			if (l.ShipMode != 0 && l.ShipMode != 4) || l.ShipInstruct != 1 {
				continue
			}
			e.Scan(t, partCols, int(l.PartKey))
			p := &db.Parts[l.PartKey]
			kind := int(p.Container) % len(ContainerKind)
			csize := int(p.Container) / len(ContainerKind)
			q := int64(l.Quantity)
			ok := false
			switch {
			case p.Brand == 1 && csize == 0 && (kind == 0 || kind == 1 || kind == 4 || kind == 5) &&
				q >= 1 && q <= 11 && p.Size <= 5:
				ok = true // Brand#12, SM containers
			case p.Brand == 7 && csize == 2 && (kind == 2 || kind == 1 || kind == 4 || kind == 5) &&
				q >= 10 && q <= 20 && p.Size <= 10:
				ok = true // Brand#23, MED containers
			case p.Brand == 13 && csize == 1 && (kind == 0 || kind == 1 || kind == 4 || kind == 5) &&
				q >= 20 && q <= 30 && p.Size <= 15:
				ok = true // Brand#34, LG containers
			}
			if ok {
				local += l.Revenue()
			}
		}
		sum += local
		mergeCharge(t, 1)
	})
	return sum / 10000
}

// Q20: potential part promotion. CANADA suppliers holding excess stock of
// forest-colored parts relative to 1994 shipments.
func (e *Engine) q20() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "name")
	liCols := Resolve("lineitem", "partkey", "suppkey", "shipdate", "quantity")
	psCols := Resolve("partsupp", "partkey", "suppkey", "availqty")
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const canada = 3
	const forest = 23 // color id
	lo := int32(MkDate(1994, 1, 1))
	hi := int32(MkDate(1995, 1, 1))
	partOK := make([]bool, len(db.Parts))
	e.Par(len(db.Parts), func(t *machine.Thread, plo, phi int) {
		for i := plo; i < phi; i++ {
			e.Scan(t, partCols, i)
			partOK[i] = db.Parts[i].HasColor(forest)
		}
	})
	// Shipped quantity per (part, supp) in 1994.
	shipped := map[uint64]int64{}
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		local := map[uint64]int64{}
		for i := llo; i < lhi; i++ {
			e.Scan(t, liCols, i)
			l := &db.Lineitems[i]
			if l.ShipDate < lo || l.ShipDate >= hi || !partOK[l.PartKey] {
				continue
			}
			local[uint64(l.PartKey)<<32|uint64(l.SuppKey)] += int64(l.Quantity)
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			shipped[k] += v
		}
		mergeCharge(t, len(local))
	})
	qualifying := map[int32]bool{}
	e.Par(len(db.PartSupps), func(t *machine.Thread, plo, phi int) {
		local := map[int32]bool{}
		for i := plo; i < phi; i++ {
			e.Scan(t, psCols, i)
			ps := &db.PartSupps[i]
			if !partOK[ps.PartKey] {
				continue
			}
			e.Scan(t, suppCols, int(ps.SuppKey))
			if db.Suppliers[ps.SuppKey].NationKey != canada {
				continue
			}
			q := shipped[uint64(ps.PartKey)<<32|uint64(ps.SuppKey)]
			if int64(ps.AvailQty)*2 > q {
				local[ps.SuppKey] = true
			}
		}
		for k := range local { //rangecheck:ok set union, order-independent
			qualifying[k] = true
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k := range qualifying { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k)
	}
	return check + int64(len(qualifying))<<20
}

// Q21: suppliers who kept orders waiting. SAUDI ARABIA suppliers whose
// lineitem was the only late one in a multi-supplier F order.
func (e *Engine) q21() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "orderstatus")
	liCols := Resolve("lineitem", "orderkey", "suppkey", "receiptdate", "commitdate")
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const saudi = 20
	waits := map[int32]int64{}
	e.Par(len(db.Orders), func(t *machine.Thread, olo, ohi int) {
		local := map[int32]int64{}
		for i := olo; i < ohi; i++ {
			e.Scan(t, ordCols, i)
			if db.Orders[i].OrderStatus != 0 { // F
				continue
			}
			start := int(db.OrderLineStart[i])
			lines := db.LineitemsOf(i)
			for j := range lines {
				e.Scan(t, liCols, start+j)
			}
			// For each late line by a Saudi supplier, require another
			// supplier's line in the order and no other supplier late.
			for j := range lines {
				l := &lines[j]
				if l.ReceiptDate <= l.CommitDate {
					continue
				}
				e.Scan(t, suppCols, int(l.SuppKey))
				if db.Suppliers[l.SuppKey].NationKey != saudi {
					continue
				}
				otherSupp, otherLate := false, false
				for k := range lines {
					if lines[k].SuppKey == l.SuppKey {
						continue
					}
					otherSupp = true
					if lines[k].ReceiptDate > lines[k].CommitDate {
						otherLate = true
						break
					}
				}
				if otherSupp && !otherLate {
					local[l.SuppKey]++
				}
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			waits[k] += v
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k, v := range waits { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k) + v*7
	}
	return check
}

// Q22: global sales opportunity. Customers from seven country codes with
// above-average positive balances and no orders.
func (e *Engine) q22() int64 {
	db := e.DB
	custCols := Resolve("customer", "custkey", "phone", "acctbal")
	ordCols := Resolve("orders", "orderkey", "custkey")
	codes := map[int32]bool{6: true, 7: true, 8: true, 9: true, 18: true, 22: true, 24: true}
	// Average positive balance over customers in the code set.
	var balSum, balN int64
	e.Par(len(db.Customers), func(t *machine.Thread, lo, hi int) {
		var s, n int64
		for i := lo; i < hi; i++ {
			e.Scan(t, custCols, i)
			c := &db.Customers[i]
			if codes[c.NationKey] && c.AcctBal > 0 {
				s += c.AcctBal
				n++
			}
		}
		balSum += s
		balN += n
		mergeCharge(t, 2)
	})
	hasOrder := make([]bool, len(db.Customers))
	e.Par(len(db.Orders), func(t *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Scan(t, ordCols, i)
			hasOrder[db.Orders[i].CustKey] = true
		}
	})
	var avg int64
	if balN > 0 {
		avg = balSum / balN
	}
	var count, total int64
	e.Par(len(db.Customers), func(t *machine.Thread, lo, hi int) {
		var c, s int64
		for i := lo; i < hi; i++ {
			e.Scan(t, custCols, i)
			cust := &db.Customers[i]
			if codes[cust.NationKey] && cust.AcctBal > avg && !hasOrder[i] {
				c++
				s += cust.AcctBal
			}
		}
		count += c
		total += s
		mergeCharge(t, 2)
	})
	return count + total/100
}
