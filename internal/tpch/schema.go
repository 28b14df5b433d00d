// Package tpch implements the W5 workload: a TPC-H data generator
// (dbgen-lite), all 22 analytical queries as hand-built physical plans, and
// five database-engine profiles (MonetDB, PostgreSQL, MySQL, DBMSx,
// Quickstep) whose architectural differences — storage layout, intra-query
// parallelism, per-tuple interpretation overhead, allocation intensity —
// modulate how much the paper's OS/allocator tuning helps each system
// (Figure 8).
//
// The generator keeps TPC-H's schema, key relationships, value domains and
// predicate selectivities, while representing strings as enums and LIKE
// predicates as generated flags with the spec's selectivity (full text
// columns would only add bytes, not behaviour). Prices use cents as
// integers; dates are days since 1992-01-01.
package tpch

// Date arithmetic: days since 1992-01-01 (the TPC-H calendar start).
const (
	daysPerYear = 365
	// EndDate is 1998-12-31, the end of the TPC-H calendar.
	EndDate = 7 * daysPerYear
)

// MkDate converts a (year, month, day) in the TPC-H calendar to day units
// (months approximated at 30 days plus drift-free year starts; all query
// predicates use the same calendar so selectivities are preserved).
func MkDate(year, month, day int) int {
	return (year-1992)*daysPerYear + (month-1)*30 + (day - 1)
}

// YearOf returns the calendar year of a date.
func YearOf(date int) int { return 1992 + date/daysPerYear }

// Region and nation enums: the fixed TPC-H geography.
var RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// NationNames lists the 25 TPC-H nations; index is the nation key.
var NationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
	"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
	"IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
	"SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

// NationRegion maps nation key -> region key (per the TPC-H spec).
var NationRegion = []int{
	0, 1, 1, 1, 4,
	0, 3, 3, 2, 2,
	4, 4, 2, 4, 0,
	0, 0, 1, 2, 3,
	4, 2, 3, 3, 1,
}

// Market segments (c_mktsegment).
var Segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

// Order priorities (o_orderpriority).
var Priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// Ship modes (l_shipmode).
var ShipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}

// Ship instructions (l_shipinstruct).
var ShipInstructs = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}

// Part naming domains.
var (
	// Colors appear in p_name; 92 in the spec, the count is what matters
	// for Q9/Q20 selectivity (5 of 92 per part).
	NumColors = 92
	// Brands: "Brand#MN" with M,N in 1..5.
	NumBrands = 25
	// Types: 6 x 5 x 5 combinations ("STANDARD ANODIZED TIN", ...).
	TypeSyllable1 = []string{"ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"}
	TypeSyllable2 = []string{"ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED"}
	TypeSyllable3 = []string{"BRASS", "COPPER", "NICKEL", "STEEL", "TIN"}
	// Containers: 5 x 8 combinations ("SM CASE", "LG BOX", ...).
	ContainerSize = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	ContainerKind = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
)

// NumTypes and NumContainers are the enum domain sizes.
var (
	NumTypes      = len(TypeSyllable1) * len(TypeSyllable2) * len(TypeSyllable3)
	NumContainers = len(ContainerSize) * len(ContainerKind)
)

// TypeOf builds a type id from syllable indexes.
func TypeOf(s1, s2, s3 int) int {
	return (s1*len(TypeSyllable2)+s2)*len(TypeSyllable3) + s3
}

// TypeSyl1 extracts syllable-1 (used by Q2's "%BRASS" style suffix match
// and Q14's "PROMO%" prefix match).
func TypeSyl1(typeID int) int { return typeID / (len(TypeSyllable2) * len(TypeSyllable3)) }

// TypeSyl3 extracts syllable-3.
func TypeSyl3(typeID int) int { return typeID % len(TypeSyllable3) }

// ContainerOf builds a container id.
func ContainerOf(size, kind int) int { return size*len(ContainerKind) + kind }

// Tables. Columns follow TPC-H names; money is in cents; percentages
// (discount, tax) are in hundredths (e.g. 6 = 0.06).

// Region is one row of REGION.
type Region struct {
	RegionKey int32
}

// Nation is one row of NATION.
type Nation struct {
	NationKey int32
	RegionKey int32
}

// Supplier is one row of SUPPLIER.
type Supplier struct {
	SuppKey   int32
	NationKey int32
	AcctBal   int64 // cents
	// ComplaintFlag models s_comment LIKE '%Customer%Complaints%' (Q16).
	ComplaintFlag bool
	// WaitFlag is unused by queries but kept for schema parity.
}

// Customer is one row of CUSTOMER.
type Customer struct {
	CustKey    int32
	NationKey  int32
	MktSegment int8
	AcctBal    int64 // cents
}

// Part is one row of PART.
type Part struct {
	PartKey     int32
	Brand       int8
	TypeID      int16
	Size        int8
	Container   int8
	RetailPrice int64
	// Colors are the 5 name words drawn from the color domain; Q9 and Q20
	// test membership.
	Colors [5]int8
}

// HasColor reports whether the part's name contains the color id.
func (p *Part) HasColor(c int) bool {
	for _, pc := range p.Colors {
		if int(pc) == c {
			return true
		}
	}
	return false
}

// PartSupp is one row of PARTSUPP.
type PartSupp struct {
	PartKey    int32
	SuppKey    int32
	AvailQty   int32
	SupplyCost int64 // cents
}

// Order is one row of ORDERS.
type Order struct {
	OrderKey      int32
	CustKey       int32
	OrderStatus   int8 // 0=F 1=O 2=P
	TotalPrice    int64
	OrderDate     int32
	OrderPriority int8
	ShipPriority  int8
	// SpecialFlag models o_comment NOT LIKE '%special%requests%' (Q13):
	// true means the comment DOES match (and Q13 excludes it).
	SpecialFlag bool
}

// Lineitem is one row of LINEITEM.
type Lineitem struct {
	OrderKey      int32
	PartKey       int32
	SuppKey       int32
	LineNumber    int8
	Quantity      int32
	ExtendedPrice int64 // cents
	Discount      int8  // hundredths
	Tax           int8  // hundredths
	ReturnFlag    int8
	LineStatus    int8
	ShipDate      int32
	CommitDate    int32
	ReceiptDate   int32
	ShipInstruct  int8
	ShipMode      int8
}

// Revenue returns extendedprice * (1 - discount) in cent-hundredths.
func (l *Lineitem) Revenue() int64 {
	return l.ExtendedPrice * int64(100-l.Discount)
}

// DB is a generated TPC-H database.
type DB struct {
	SF        float64
	Nations   []Nation
	Regions   []Region
	Suppliers []Supplier
	Customers []Customer
	Parts     []Part
	PartSupps []PartSupp
	Orders    []Order
	Lineitems []Lineitem

	// OrderLineIndex maps order position -> [start, end) in Lineitems
	// (lineitems are generated clustered by order, as dbgen emits them).
	OrderLineStart []int32
}

// LineitemsOf returns the lineitem range of the order at position i.
func (db *DB) LineitemsOf(i int) []Lineitem {
	start := db.OrderLineStart[i]
	end := int32(len(db.Lineitems))
	if i+1 < len(db.OrderLineStart) {
		end = db.OrderLineStart[i+1]
	}
	return db.Lineitems[start:end]
}
