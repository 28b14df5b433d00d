package tpch

import (
	"sort"

	"repro/internal/hashtable"
	"repro/internal/machine"
)

// QueryResult is one query execution: simulated wall cycles plus an
// integer checksum of the query's answer. Checksums are commutative sums,
// so they are identical across engines, thread counts and configurations —
// tests rely on that to validate the plans.
type QueryResult struct {
	Query int
	Wall  float64
	Check int64
}

// NumQueries is the TPC-H query count.
const NumQueries = 22

// RunQuery executes TPC-H query q (1-22) and returns its result.
func (e *Engine) RunQuery(q int) QueryResult {
	e.M.ResetCounters()
	e.wall = 0
	fns := [NumQueries]func() int64{
		e.q1, e.q2, e.q3, e.q4, e.q5, e.q6, e.q7, e.q8, e.q9, e.q10,
		e.q11, e.q12, e.q13, e.q14, e.q15, e.q16, e.q17, e.q18, e.q19,
		e.q20, e.q21, e.q22,
	}
	if q < 1 || q > NumQueries {
		panic("tpch: query number out of range")
	}
	check := fns[q-1]()
	return QueryResult{Query: q, Wall: e.wall, Check: check}
}

// mergeCharge charges the cost of merging a per-thread partial result of n
// entries into the shared result (latch + copy).
func mergeCharge(t *machine.Thread, n int) { t.Charge(30 + 4*float64(n)) }

// Q1: pricing summary report. Full lineitem scan, six (returnflag,
// linestatus) groups, five aggregates each.
func (e *Engine) q1() int64 {
	db := e.DB
	cutoff := int32(MkDate(1998, 9, 2))
	cols := Resolve("lineitem", "shipdate", "returnflag", "linestatus", "quantity", "extendedprice", "discount", "tax")
	type agg struct{ qty, price, disc, charge, count int64 }
	var global [6]agg
	e.ParTable(cols, func(t *machine.Thread, lo, hi int) {
		var local [6]agg
		var inter interBuf
		e.ScanBlocks(t, cols, lo, hi, func(i int) {
			l := &db.Lineitems[i]
			if l.ShipDate > cutoff {
				return
			}
			g := &local[l.ReturnFlag*2+l.LineStatus]
			g.qty += int64(l.Quantity)
			g.price += l.ExtendedPrice
			g.disc += l.Revenue()
			g.charge += l.Revenue() * int64(100+l.Tax)
			g.count++
			e.Emit(t, &inter, 24)
		})
		inter.release(t)
		for i := range global {
			global[i].qty += local[i].qty
			global[i].price += local[i].price
			global[i].disc += local[i].disc
			global[i].charge += local[i].charge
			global[i].count += local[i].count
		}
		mergeCharge(t, 6)
	})
	var check int64
	for _, g := range global {
		check += g.qty + g.price/100 + g.disc/10000 + g.charge/1000000 + g.count
	}
	return check
}

// Q2: minimum-cost supplier. Parts of a size/type in a region, minimum
// supply cost over partsupp x supplier x nation x region.
func (e *Engine) q2() int64 {
	db := e.DB
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const size, region = 15, 3 // EUROPE
	wantSyl3 := 4              // TIN suffix match "%TIN"
	partCols := Resolve("part", "partkey", "size", "type")
	var table *hashtable.Table
	e.Serial(func(t *machine.Thread) { table = hashtable.New(t, len(db.Parts)/16+16) })
	e.Par(len(db.Parts), func(t *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Scan(t, partCols, i)
			p := &db.Parts[i]
			if int(p.Size) == size && TypeSyl3(int(p.TypeID)) == wantSyl3 {
				table.Put(t, uint64(p.PartKey), uint32(i))
			}
		}
	})
	minCost := map[uint64]int64{}
	psCols := Resolve("partsupp", "partkey", "suppkey", "supplycost")
	e.Par(len(db.PartSupps), func(t *machine.Thread, lo, hi int) {
		local := map[uint64]int64{}
		for i := lo; i < hi; i++ {
			e.Scan(t, psCols, i)
			ps := &db.PartSupps[i]
			if _, ok := table.Get(t, uint64(ps.PartKey)); !ok {
				continue
			}
			e.Scan(t, suppCols, int(ps.SuppKey))
			s := &db.Suppliers[ps.SuppKey]
			if NationRegion[s.NationKey] != region {
				continue
			}
			k := uint64(ps.PartKey)
			if c, ok := local[k]; !ok || ps.SupplyCost < c {
				local[k] = ps.SupplyCost
			}
		}
		for k, v := range local { //rangecheck:ok commutative min-merge
			if c, ok := minCost[k]; !ok || v < c {
				minCost[k] = v
			}
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k, v := range minCost { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k) + v
	}
	return check
}

// Q3: shipping priority. BUILDING customers, unshipped orders, top revenue.
func (e *Engine) q3() int64 {
	db := e.DB
	custCols := Resolve("customer", "custkey", "mktsegment")
	ordCols := Resolve("orders", "orderkey", "custkey", "orderdate", "shippriority")
	liCols := Resolve("lineitem", "orderkey", "shipdate", "extendedprice", "discount")
	const segment = 1 // BUILDING
	date := int32(MkDate(1995, 3, 15))
	custOK := make([]bool, len(db.Customers))
	e.Par(len(db.Customers), func(t *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Scan(t, custCols, i)
			custOK[i] = db.Customers[i].MktSegment == segment
		}
	})
	var orders *hashtable.Table
	e.Serial(func(t *machine.Thread) { orders = hashtable.New(t, len(db.Orders)/4+16) })
	e.Par(len(db.Orders), func(t *machine.Thread, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Scan(t, ordCols, i)
			o := &db.Orders[i]
			if o.OrderDate < date && custOK[o.CustKey] {
				orders.Put(t, uint64(o.OrderKey), uint32(i))
			}
		}
	})
	revenue := map[uint64]int64{}
	e.Par(len(db.Lineitems), func(t *machine.Thread, lo, hi int) {
		local := map[uint64]int64{}
		for i := lo; i < hi; i++ {
			e.Scan(t, liCols, i)
			l := &db.Lineitems[i]
			if l.ShipDate <= date {
				continue
			}
			if _, ok := orders.Get(t, uint64(l.OrderKey)); ok {
				local[uint64(l.OrderKey)] += l.Revenue()
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			revenue[k] += v
		}
		mergeCharge(t, len(local))
	})
	check := topSum(revenue, 10)
	return check
}

// topSum sums the top-n values of m (descending, ties by key for
// determinism).
func topSum(m map[uint64]int64, n int) int64 {
	type kv struct {
		k uint64
		v int64
	}
	all := make([]kv, 0, len(m))
	for k, v := range m { //rangecheck:ok entries sorted immediately below
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > n {
		all = all[:n]
	}
	var s int64
	for _, e := range all {
		s += e.v
	}
	return s
}

// Q4: order priority checking. Orders in a quarter with at least one late
// lineitem, counted by priority.
func (e *Engine) q4() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "orderdate", "orderpriority")
	liCols := Resolve("lineitem", "orderkey", "commitdate", "receiptdate")
	lo := int32(MkDate(1993, 7, 1))
	hi := lo + 90
	var counts [5]int64
	e.Par(len(db.Orders), func(t *machine.Thread, olo, ohi int) {
		var local [5]int64
		for i := olo; i < ohi; i++ {
			e.Scan(t, ordCols, i)
			o := &db.Orders[i]
			if o.OrderDate < lo || o.OrderDate >= hi {
				continue
			}
			start := int(db.OrderLineStart[i])
			for j, l := range db.LineitemsOf(i) {
				e.Scan(t, liCols, start+j)
				if l.CommitDate < l.ReceiptDate {
					local[o.OrderPriority]++
					break
				}
			}
		}
		for i, v := range local {
			counts[i] += v
		}
		mergeCharge(t, 5)
	})
	var check int64
	for i, c := range counts {
		check += int64(i+1) * c
	}
	return check
}

// Q5: local supplier volume. Revenue in ASIA where customer and supplier
// share a nation, grouped by nation.
func (e *Engine) q5() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "custkey", "orderdate")
	custCols := Resolve("customer", "custkey", "nationkey")
	liCols := Resolve("lineitem", "suppkey", "extendedprice", "discount")
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const region = 2 // ASIA
	lo := int32(MkDate(1994, 1, 1))
	hi := int32(MkDate(1995, 1, 1))
	nationRev := map[uint64]int64{}
	e.Par(len(db.Orders), func(t *machine.Thread, olo, ohi int) {
		local := map[uint64]int64{}
		for i := olo; i < ohi; i++ {
			e.Scan(t, ordCols, i)
			o := &db.Orders[i]
			if o.OrderDate < lo || o.OrderDate >= hi {
				continue
			}
			e.Scan(t, custCols, int(o.CustKey))
			cn := db.Customers[o.CustKey].NationKey
			if NationRegion[cn] != region {
				continue
			}
			start := int(db.OrderLineStart[i])
			for j, l := range db.LineitemsOf(i) {
				e.Scan(t, liCols, start+j)
				e.Scan(t, suppCols, int(l.SuppKey))
				if db.Suppliers[l.SuppKey].NationKey == cn {
					local[uint64(cn)] += l.Revenue()
				}
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			nationRev[k] += v
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k, v := range nationRev { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k) + v/10000
	}
	return check
}

// Q6: forecasting revenue change. Pure lineitem scan with tight
// range predicates.
func (e *Engine) q6() int64 {
	db := e.DB
	lo := int32(MkDate(1994, 1, 1))
	hi := int32(MkDate(1995, 1, 1))
	var revenue int64
	cols := Resolve("lineitem", "shipdate", "discount", "quantity", "extendedprice")
	e.ParTable(cols, func(t *machine.Thread, llo, lhi int) {
		var local int64
		e.ScanBlocks(t, cols, llo, lhi, func(i int) {
			l := &db.Lineitems[i]
			if l.ShipDate >= lo && l.ShipDate < hi && l.Discount >= 5 && l.Discount <= 7 && l.Quantity < 24 {
				local += l.ExtendedPrice * int64(l.Discount)
			}
		})
		revenue += local
		mergeCharge(t, 1)
	})
	return revenue / 100
}

// Q7: volume shipping. FRANCE <-> GERMANY flows by supplier nation and
// year.
func (e *Engine) q7() int64 {
	db := e.DB
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	ordCols := Resolve("orders", "orderkey", "custkey")
	custCols := Resolve("customer", "custkey", "nationkey")
	const fr, de = 6, 7
	lo := int32(MkDate(1995, 1, 1))
	hi := int32(MkDate(1996, 12, 31))
	vol := map[uint64]int64{}
	cols := Resolve("lineitem", "orderkey", "suppkey", "shipdate", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		local := map[uint64]int64{}
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if l.ShipDate < lo || l.ShipDate > hi {
				continue
			}
			e.Scan(t, suppCols, int(l.SuppKey))
			sn := db.Suppliers[l.SuppKey].NationKey
			if sn != fr && sn != de {
				continue
			}
			e.Scan(t, ordCols, int(l.OrderKey))
			o := &db.Orders[l.OrderKey]
			e.Scan(t, custCols, int(o.CustKey))
			cn := db.Customers[o.CustKey].NationKey
			if (sn == fr && cn == de) || (sn == de && cn == fr) {
				key := uint64(sn)<<32 | uint64(YearOf(int(l.ShipDate)))
				local[key] += l.Revenue()
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			vol[k] += v
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k, v := range vol { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k&0xffff) + v/10000
	}
	return check
}

// Q8: national market share of BRAZIL for a part type in AMERICA, by year.
func (e *Engine) q8() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "type")
	ordCols := Resolve("orders", "orderkey", "custkey", "orderdate")
	custCols := Resolve("customer", "custkey", "nationkey")
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const region, brazil = 1, 2        // AMERICA, BRAZIL
	wantType := int16(TypeOf(0, 0, 3)) // ECONOMY ANODIZED STEEL
	lo := int32(MkDate(1995, 1, 1))
	hi := int32(MkDate(1996, 12, 31))
	partOK := make([]bool, len(db.Parts))
	e.Par(len(db.Parts), func(t *machine.Thread, plo, phi int) {
		for i := plo; i < phi; i++ {
			e.Scan(t, partCols, i)
			partOK[i] = db.Parts[i].TypeID == wantType
		}
	})
	type share struct{ num, den int64 }
	byYear := map[int]*share{}
	cols := Resolve("lineitem", "orderkey", "partkey", "suppkey", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		local := map[int]*share{}
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if !partOK[l.PartKey] {
				continue
			}
			e.Scan(t, ordCols, int(l.OrderKey))
			o := &db.Orders[l.OrderKey]
			if o.OrderDate < lo || o.OrderDate > hi {
				continue
			}
			e.Scan(t, custCols, int(o.CustKey))
			if NationRegion[db.Customers[o.CustKey].NationKey] != region {
				continue
			}
			y := YearOf(int(o.OrderDate))
			s := local[y]
			if s == nil {
				s = &share{}
				local[y] = s
			}
			s.den += l.Revenue()
			e.Scan(t, suppCols, int(l.SuppKey))
			if db.Suppliers[l.SuppKey].NationKey == brazil {
				s.num += l.Revenue()
			}
		}
		for y, s := range local { //rangecheck:ok commutative += merge of num/den
			g := byYear[y]
			if g == nil {
				g = &share{}
				byYear[y] = g
			}
			g.num += s.num
			g.den += s.den
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for y, s := range byYear { //rangecheck:ok commutative wrapping-add checksum
		check += int64(y) + s.num/10000 + s.den/10000
	}
	return check
}

// Q9: product-type profit for parts whose name contains "green", by
// supplier nation and year.
func (e *Engine) q9() int64 {
	db := e.DB
	partCols := Resolve("part", "partkey", "name")
	psCols := Resolve("partsupp", "partkey", "suppkey", "supplycost")
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	ordCols := Resolve("orders", "orderkey", "orderdate")
	const green = 17 // color id
	partOK := make([]bool, len(db.Parts))
	e.Par(len(db.Parts), func(t *machine.Thread, plo, phi int) {
		for i := plo; i < phi; i++ {
			e.Scan(t, partCols, i)
			partOK[i] = db.Parts[i].HasColor(green)
		}
	})
	profit := map[uint64]int64{}
	cols := Resolve("lineitem", "orderkey", "partkey", "suppkey", "quantity", "extendedprice", "discount")
	e.Par(len(db.Lineitems), func(t *machine.Thread, llo, lhi int) {
		local := map[uint64]int64{}
		for i := llo; i < lhi; i++ {
			e.Scan(t, cols, i)
			l := &db.Lineitems[i]
			if !partOK[l.PartKey] {
				continue
			}
			// Find the partsupp row for (part, supp): dbgen clusters the
			// four candidate suppliers per part.
			var cost int64
			base := int(l.PartKey) * suppsPerPart
			for j := 0; j < suppsPerPart; j++ {
				e.Scan(t, psCols, base+j)
				if db.PartSupps[base+j].SuppKey == l.SuppKey {
					cost = db.PartSupps[base+j].SupplyCost
					break
				}
			}
			e.Scan(t, suppCols, int(l.SuppKey))
			e.Scan(t, ordCols, int(l.OrderKey))
			nation := db.Suppliers[l.SuppKey].NationKey
			year := YearOf(int(db.Orders[l.OrderKey].OrderDate))
			amount := l.Revenue()/100 - cost*int64(l.Quantity)
			local[uint64(nation)<<32|uint64(year)] += amount
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			profit[k] += v
		}
		mergeCharge(t, len(local))
	})
	var check int64
	for k, v := range profit { //rangecheck:ok commutative wrapping-add checksum
		check += int64(k&0xffff) + v/1000
	}
	return check
}

// Q10: returned-item reporting. Customer revenue from returned lineitems
// in a quarter, top 20 customers.
func (e *Engine) q10() int64 {
	db := e.DB
	ordCols := Resolve("orders", "orderkey", "custkey", "orderdate")
	liCols := Resolve("lineitem", "orderkey", "returnflag", "extendedprice", "discount")
	lo := int32(MkDate(1993, 10, 1))
	hi := lo + 90
	custRev := map[uint64]int64{}
	e.Par(len(db.Orders), func(t *machine.Thread, olo, ohi int) {
		local := map[uint64]int64{}
		for i := olo; i < ohi; i++ {
			e.Scan(t, ordCols, i)
			o := &db.Orders[i]
			if o.OrderDate < lo || o.OrderDate >= hi {
				continue
			}
			start := int(db.OrderLineStart[i])
			for j, l := range db.LineitemsOf(i) {
				e.Scan(t, liCols, start+j)
				if l.ReturnFlag == 2 { // R
					local[uint64(o.CustKey)] += l.Revenue()
				}
			}
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			custRev[k] += v
		}
		mergeCharge(t, len(local))
	})
	return topSum(custRev, 20) / 10000
}

// Q11: important stock identification. GERMANY partsupp value above a
// scale-adjusted fraction of the total.
func (e *Engine) q11() int64 {
	db := e.DB
	suppCols := Resolve("supplier", "suppkey", "nationkey")
	const germany = 7
	value := map[uint64]int64{}
	var total int64
	cols := Resolve("partsupp", "partkey", "suppkey", "availqty", "supplycost")
	e.Par(len(db.PartSupps), func(t *machine.Thread, lo, hi int) {
		local := map[uint64]int64{}
		var localTotal int64
		for i := lo; i < hi; i++ {
			e.Scan(t, cols, i)
			ps := &db.PartSupps[i]
			e.Scan(t, suppCols, int(ps.SuppKey))
			if db.Suppliers[ps.SuppKey].NationKey != germany {
				continue
			}
			v := ps.SupplyCost * int64(ps.AvailQty)
			local[uint64(ps.PartKey)] += v
			localTotal += v
		}
		for k, v := range local { //rangecheck:ok commutative += merge
			value[k] += v
		}
		total += localTotal
		mergeCharge(t, len(local))
	})
	// Threshold fraction 0.0001 / SF, as in the spec.
	threshold := int64(float64(total) * 0.0001 / db.SF)
	var check int64
	for k, v := range value { //rangecheck:ok threshold fixed before loop; commutative add
		if v > threshold {
			check += int64(k) + v/10000
		}
	}
	return check
}
