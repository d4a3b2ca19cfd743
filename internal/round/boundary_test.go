package round

import (
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"lppa/internal/geo"
)

// TestClearTakesNoPlaintext guards the paper's trust boundary on the
// auctioneer stage: no type reachable from Clear's parameters — through
// pointers, slices, arrays, maps, channels, struct fields, function
// signatures and interface methods — may be a coordinate (geo.Point) or
// the bidder-side round input (Input, which carries points and plaintext
// bids). The wire server must not even import the geometry package.
func TestClearTakesNoPlaintext(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(geo.Point{}): true,
		reflect.TypeOf(Input{}):     true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if forbidden[ty] {
			t.Errorf("Clear reaches %v via %s", ty, path)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"/"+ty.Kind().String())
		case reflect.Map:
			walk(ty.Key(), path+"/key")
			walk(ty.Elem(), path+"/value")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Func:
			for i := 0; i < ty.NumIn(); i++ {
				walk(ty.In(i), path+"/in"+strconv.Itoa(i))
			}
			for i := 0; i < ty.NumOut(); i++ {
				walk(ty.Out(i), path+"/out"+strconv.Itoa(i))
			}
		case reflect.Interface:
			for i := 0; i < ty.NumMethod(); i++ {
				m := ty.Method(i)
				walk(m.Type, path+"."+m.Name)
			}
		}
	}
	clear := reflect.TypeOf(Clear)
	for i := 0; i < clear.NumIn(); i++ {
		walk(clear.In(i), "param"+strconv.Itoa(i))
	}
	if len(seen) < 20 {
		t.Fatalf("walked only %d types; the guard is not looking", len(seen))
	}

	f, err := parser.ParseFile(token.NewFileSet(), "../transport/auctioneer.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "lppa/internal/geo" {
			t.Errorf("internal/transport/auctioneer.go imports %s", path)
		}
	}
}
