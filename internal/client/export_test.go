package client

// FetchFileStreams exposes FetchFile's window to the external tests.
const FetchFileStreams = fetchFileStreams
