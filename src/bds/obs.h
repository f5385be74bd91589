/**
 * @file
 * Facade: observability and configuration — bds::RunConfig (the one
 * BDS_* environment / --flag funnel every tool resolves through),
 * bds::Session and the run manifest it writes, the Tracer's spans,
 * the counter registry (obs/metrics.h), and the manifest/trace
 * validators CI runs (obs/check.h).
 */

#ifndef BDS_BDS_OBS_H
#define BDS_BDS_OBS_H

#include "obs/check.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/runconfig.h"
#include "obs/session.h"
#include "obs/trace.h"

#endif // BDS_BDS_OBS_H
