package models

import (
	"reflect"
	"sync"
	"testing"
)

// blobWithSeed encodes the sample set under seed, a blob no other test
// of the package decodes.
func blobWithSeed(t *testing.T, seed uint64) []byte {
	t.Helper()
	set := sampleModelSet()
	set.Seed = seed
	data, err := set.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeSharedParsesOncePerBlob(t *testing.T) {
	data := blobWithSeed(t, 1001)
	fresh, err := UnmarshalModelSetXML(data)
	if err != nil {
		t.Fatal(err)
	}
	// Eight first readers released at once must all wait for one parse.
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [8]*ModelSet
	)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			set, err := DecodeShared(data)
			if err != nil {
				t.Error(err)
			}
			got[i] = set
		}(i)
	}
	close(start)
	wg.Wait()
	for i, set := range got {
		if set != got[0] {
			t.Fatalf("reader %d got %p, reader 0 %p: the blob was parsed more than once", i, set, got[0])
		}
	}
	if !reflect.DeepEqual(got[0], fresh) {
		t.Fatal("shared set differs from a fresh parse")
	}
	if got[0] == fresh {
		t.Fatal("UnmarshalModelSetXML returned the shared set")
	}

	// The memo keys by content and keeps no reference to the caller's
	// bytes: scribbling over them after the call changes nothing.
	again := append([]byte(nil), data...)
	for i := range data {
		data[i] = ' '
	}
	if set, err := DecodeShared(again); err != nil || set != got[0] {
		t.Fatalf("equal bytes in a new buffer got %p (%v), want %p", set, err, got[0])
	}
}

func TestDecodeSharedEvictsTheLeastRecent(t *testing.T) {
	blobs := make([][]byte, sharedSetCap+1)
	first := make([]*ModelSet, len(blobs))
	for i := range blobs {
		blobs[i] = blobWithSeed(t, 2000+uint64(i))
		set, err := DecodeShared(blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = set
	}
	// The newest blob is still held; the oldest was evicted by the one
	// past capacity and re-parses to an equal, new set.
	if set, _ := DecodeShared(blobs[len(blobs)-1]); set != first[len(blobs)-1] {
		t.Fatal("the most recent blob was re-parsed")
	}
	set, err := DecodeShared(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if set == first[0] {
		t.Fatalf("%d distinct blobs later the oldest is still held", sharedSetCap)
	}
	if !reflect.DeepEqual(set, first[0]) {
		t.Fatal("the re-parsed oldest blob differs from its first parse")
	}
}

func TestDecodeSharedMemoizesErrors(t *testing.T) {
	good := blobWithSeed(t, 3001)
	valid, err := DecodeShared(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`<TotoModels seed="1" ringShare="NaN"></TotoModels>`)
	_, err1 := DecodeShared(bad)
	set, err2 := DecodeShared(bad)
	if err1 == nil || set != nil {
		t.Fatalf("malformed blob decoded to %p, %v", set, err1)
	}
	if err2 != err1 {
		t.Fatalf("second reader got %v, want the first reader's error %v", err2, err1)
	}
	if again, err := DecodeShared(good); err != nil || again != valid {
		t.Fatalf("malformed blob disturbed a valid entry: %p (%v), want %p", again, err, valid)
	}
}
